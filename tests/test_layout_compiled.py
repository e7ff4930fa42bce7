"""Differential + invariant tests of the array-native layout core.

The compiled engine (`repro.phys.compiled`) must reproduce the
pure-Python reference flow (`tests/layout_reference.py`)
**bit-identically** — same RNG streams, same operation order per cell
— across ISCAS-85, ITC'99 and random-logic circuits: placements,
routes, FEOL stubs and LayoutCost all compare with ``==``, never
``approx``.  The shared array geometry (`repro.phys.geometry`) is
likewise pinned against the scalar hint helpers, and the classic
layout invariants (legality, fixed TIE cells, capacity spill order,
stub accounting) are asserted for both flows.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.adversary.features import build_candidates
from repro.benchgen import GeneratorConfig, load_iscas85, load_itc99
from repro.benchgen.random_logic import generate_random_circuit
from repro.locking import AtpgLockConfig, atpg_lock
from repro.netlist.cell_library import ROW_HEIGHT_UM, SITE_WIDTH_UM
from repro.phys.compiled import (
    _collect_pins_fast,
    _RowOccupancy,
    place_compiled,
    route_compiled,
    split_compiled,
)
from repro.phys.cost import measure_layout_cost
from repro.phys.floorplan import build_floorplan
from repro.phys.geometry import exact_hypot, score_block, stub_arrays
from repro.phys.layout import build_locked_layout
from repro.phys.lifting import lift_key_nets
from repro.phys.routing import ROUTING_PAIRS, collect_pins
from repro.phys.tie_cells import randomize_tie_cells
from repro.utils.rng import rng_for
from tests.candidate_reference import pair_features, proximity_score
from tests.layout_reference import (
    patch_reference,
    place_reference,
    route_reference,
    split_reference,
)


def _locked(circuit, key_bits, seed=2019):
    locked, _ = atpg_lock(
        circuit, AtpgLockConfig(key_bits=key_bits, seed=seed, run_lec=False)
    )
    return locked


def _flow_pair(locked, seed=2019, split=4):
    """Reference and compiled flows run side by side on one design."""
    circuit = locked.circuit
    plan = build_floorplan(circuit)
    rng = rng_for(seed, "tie-randomize", circuit.name)
    fixed = randomize_tie_cells(locked.tie_cells, plan, rng)
    key_nets = set(locked.tie_cells)
    flows = {}
    for label, placer, router, splitter in (
        ("reference", place_reference, route_reference, split_reference),
        ("compiled", place_compiled, route_compiled, split_compiled),
    ):
        placement = placer(
            circuit, plan, seed=seed, fixed_cells=fixed, ignore_nets=key_nets
        )
        routing = router(
            circuit, placement, plan, seed=seed, key_nets=key_nets
        )
        lifting = lift_key_nets(routing, locked.key_bits, placement, split)
        view = splitter(circuit, routing, split, key_nets)
        flows[label] = (plan, placement, routing, lifting, view)
    return flows


CIRCUITS = {
    "iscas85": lambda: load_iscas85("c880"),
    "itc99": lambda: load_itc99("b14", scale=0.2).combinational_core(),
    "random": lambda: generate_random_circuit(
        GeneratorConfig(12, 6, 220), seed=11, name="rand220"
    ),
}


@pytest.fixture(scope="module", params=sorted(CIRCUITS))
def engine_flows(request):
    locked = _locked(CIRCUITS[request.param](), key_bits=12)
    flows = _flow_pair(locked)
    flows["circuit"] = locked.circuit
    return flows


def _unpack(engine_flows):
    return engine_flows["reference"], engine_flows["compiled"]


# ----------------------------------------------------------------------
# Differential: compiled == reference, bit for bit
# ----------------------------------------------------------------------
def test_placements_bit_identical(engine_flows):
    (_, p_ref, *_), (_, p_cmp, *_) = _unpack(engine_flows)
    assert p_ref.locations == p_cmp.locations
    assert list(p_ref.locations) == list(p_cmp.locations)
    assert p_ref.widths_sites == p_cmp.widths_sites
    assert p_ref.fixed == p_cmp.fixed


def test_routes_bit_identical(engine_flows):
    (_, _, r_ref, *_), (_, _, r_cmp, *_) = _unpack(engine_flows)
    assert list(r_ref.nets) == list(r_cmp.nets)
    assert r_ref.pair_usage == r_cmp.pair_usage
    assert r_ref.pair_capacity == r_cmp.pair_capacity
    for net in r_ref.nets:
        assert r_ref.nets[net] == r_cmp.nets[net]


def test_lifting_and_split_bit_identical(engine_flows):
    (*_, l_ref, v_ref), (*_, l_cmp, v_cmp) = _unpack(engine_flows)
    assert l_ref.lifted_nets == l_cmp.lifted_nets
    assert l_ref.via_columns == l_cmp.via_columns
    assert l_ref.eco_rerouted == l_cmp.eco_rerouted
    assert l_ref.eco_buffers == l_cmp.eco_buffers
    assert v_ref.visible_nets == v_cmp.visible_nets
    assert v_ref.source_stubs == v_cmp.source_stubs
    assert v_ref.sink_stubs == v_cmp.sink_stubs
    # stub coordinates must be plain floats on both sides (the arrays
    # are views, not the API)
    for stub in v_cmp.source_stubs[:20] + v_ref.source_stubs[:20]:
        assert type(stub.x) is float and type(stub.y) is float


def test_layout_cost_bit_identical(engine_flows):
    circuit = engine_flows["circuit"]
    (plan, _, r_ref, *_), (_, _, r_cmp, *_) = _unpack(engine_flows)
    cost_ref = measure_layout_cost(circuit, plan, r_ref)
    cost_cmp = measure_layout_cost(circuit, plan, r_cmp)
    assert asdict(cost_ref) == asdict(cost_cmp)


def test_split_layers_match_across_engines(engine_flows):
    """Every split layer agrees, not just the one the fixture used."""
    circuit = engine_flows["circuit"]
    (_, _, r_ref, *_), (_, _, r_cmp, *_) = _unpack(engine_flows)
    for split in (4, 6):
        v_ref = split_reference(circuit, r_ref, split)
        v_cmp = split_compiled(circuit, r_cmp, split)
        assert v_ref.source_stubs == v_cmp.source_stubs
        assert v_ref.sink_stubs == v_cmp.sink_stubs
        assert v_ref.visible_nets == v_cmp.visible_nets


def test_collect_pins_fast_identical(engine_flows):
    circuit = engine_flows["circuit"]
    (plan, p_ref, *_), _ = _unpack(engine_flows)
    assert collect_pins(circuit, p_ref, plan) == _collect_pins_fast(
        circuit, p_ref, plan
    )


# ----------------------------------------------------------------------
# Layout invariants (both engines)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["reference", "compiled"])
def test_legalized_placement_never_overlaps(engine_flows, engine):
    plan, placement, *_ = engine_flows[engine]
    occupied = {}
    for name, (x, y) in placement.locations.items():
        row = round(y / ROW_HEIGHT_UM)
        start = round(x / SITE_WIDTH_UM)
        width = placement.widths_sites[name]
        assert 0 <= row < plan.num_rows
        assert 0 <= start and start + width <= plan.sites_per_row
        for site in range(start, start + width):
            assert (row, site) not in occupied, f"overlap at {(row, site)}"
            occupied[(row, site)] = name


@pytest.mark.parametrize("engine", ["reference", "compiled"])
def test_fixed_tie_cells_keep_their_sites(engine_flows, engine):
    plan, placement, *_ = engine_flows[engine]
    for name in placement.fixed:
        x, y = placement.locations[name]
        row, site = plan.snap(x, y)
        assert placement.locations[name] == (
            plan.site_x(site), plan.row_y(row),
        )


@pytest.mark.parametrize("engine", ["reference", "compiled"])
def test_routing_stays_within_track_capacity(engine_flows, engine):
    """No pair overflows — unless the whole stack is saturated.

    ``_assign_pair`` only returns an over-capacity pair when every pair
    rejected the net; usage never shrinks, so if any pair ended above
    capacity, every pair must have been within one (longest) net of its
    capacity at that moment — a true invariant of the spill order.
    """
    _, _, routing, *_ = engine_flows[engine]
    longest = max(
        (
            sum(r.length for r in net.routes)
            for net in routing.nets.values()
            if not net.is_key_net
        ),
        default=0.0,
    )
    overflowing = [
        pair
        for pair, used in routing.pair_usage.items()
        if used > routing.pair_capacity[pair]
    ]
    for pair in routing.pair_usage:
        assert pair in ROUTING_PAIRS
    if overflowing:
        for pair, used in routing.pair_usage.items():
            assert used + longest > routing.pair_capacity[pair]
    else:
        for pair, used in routing.pair_usage.items():
            assert used <= routing.pair_capacity[pair]


def test_assign_pair_spill_order():
    """A net spills one pair up when its preferred pair is full, keeps
    climbing while pairs stay full, and falls back downward (then to
    the preferred pair) when everything above is saturated."""
    from repro.phys.routing import Routing, _assign_pair

    def fresh():
        routing = Routing()
        for pair in ROUTING_PAIRS:
            routing.pair_capacity[pair] = 100.0
            routing.pair_usage[pair] = 0.0
        return routing

    routing = fresh()
    assert _assign_pair(routing, 2, 10.0) == 2
    routing.pair_usage[2] = 95.0
    assert _assign_pair(routing, 2, 10.0) == 4  # spill one pair up
    routing.pair_usage[4] = 95.0
    assert _assign_pair(routing, 2, 10.0) == 6  # keep climbing
    routing.pair_usage[6] = 95.0
    routing.pair_usage[8] = 95.0
    routing.pair_usage[4] = 50.0
    assert _assign_pair(routing, 6, 10.0) == 4  # overflow falls downward
    for pair in ROUTING_PAIRS:
        routing.pair_usage[pair] = 100.0
    assert _assign_pair(routing, 4, 10.0) == 4  # total saturation: preferred


@pytest.mark.parametrize("engine", ["reference", "compiled"])
def test_stub_counts_match_broken_net_accounting(engine_flows, engine):
    _, _, routing, _, view = engine_flows[engine]
    broken = {s.net for s in view.source_stubs}
    assert view.broken_net_count == len(broken)
    assert broken | view.visible_nets == set(routing.nets)
    assert not broken & view.visible_nets
    # every broken net contributes one sink stub per broken route
    sink_nets = {}
    for stub in view.sink_stubs:
        sink_nets[stub.net] = sink_nets.get(stub.net, 0) + 1
    assert set(sink_nets) == broken


# ----------------------------------------------------------------------
# Shared geometry core
# ----------------------------------------------------------------------
def test_exact_hypot_matches_math_hypot():
    import math

    rng = np.random.default_rng(5)
    dx = rng.uniform(0, 700, 4096)
    dy = rng.uniform(0, 700, 4096)
    out = exact_hypot(dx, dy)
    for i in range(0, 4096, 37):
        assert out[i] == math.hypot(dx[i], dy[i])


def test_score_block_matches_scalar_proximity_score(engine_flows):
    view = engine_flows["compiled"][4]
    arrays = stub_arrays(view)
    stop = min(40, arrays.num_sinks)
    block = score_block(arrays, 0, stop)
    for i in range(stop):
        sink = view.sink_stubs[i]
        for j in range(0, arrays.num_sources, 7):
            source = view.source_stubs[j]
            assert block[i, j] == proximity_score(source, sink)


def test_feature_matrix_matches_scalar_reference(engine_flows):
    view = engine_flows["compiled"][4]
    candidates = build_candidates(view, per_sink=8, with_labels=True)
    branches = {}
    for stub in view.source_stubs:
        branches[stub.net] = branches.get(stub.net, 0) + 1
    for row in range(0, candidates.num_pairs, 11):
        sink = candidates.sinks[int(candidates.pairs[row, 0])]
        source = candidates.sources[int(candidates.pairs[row, 1])]
        expected = pair_features(
            source, sink, candidates.span, branches[source.net]
        )
        assert tuple(candidates.features[row]) == expected
        assert candidates.labels[row] == (
            1.0 if source.net == sink.net else 0.0
        )


def test_stub_array_cache_invalidates_on_mutation(engine_flows):
    view = engine_flows["compiled"][4]
    first = stub_arrays(view)
    assert stub_arrays(view) is first  # cached
    view.source_stubs = list(view.source_stubs[:-1])
    rebuilt = stub_arrays(view)
    assert rebuilt is not first
    assert rebuilt.num_sources == first.num_sources - 1


def test_feol_view_pickles_without_array_cache(engine_flows):
    import pickle

    view = engine_flows["compiled"][4]
    stub_arrays(view)
    restored = pickle.loads(pickle.dumps(view))
    assert not hasattr(restored, "_stub_arrays")
    assert restored.source_stubs == view.source_stubs


# ----------------------------------------------------------------------
# Pin-centre precompute
# ----------------------------------------------------------------------
def test_pin_centers_computed_once_and_exact(engine_flows):
    _, placement, *_ = engine_flows["compiled"]
    centers = placement.pin_centers()
    assert placement.pin_centers() is centers
    for name, (x, y) in list(placement.locations.items())[:25]:
        width = placement.widths_sites.get(name, 1) * SITE_WIDTH_UM
        assert placement.pin_location(name) == (
            x + width / 2.0, y + ROW_HEIGHT_UM / 2.0,
        )


def test_placement_pickles_without_pin_cache(engine_flows):
    import pickle

    _, placement, *_ = engine_flows["compiled"]
    placement.pin_centers()
    restored = pickle.loads(pickle.dumps(placement))
    assert restored._pin_centers is None
    assert restored.locations == placement.locations
    assert restored.pin_location(
        next(iter(placement.locations))
    ) == placement.pin_location(next(iter(placement.locations)))


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
def test_cache_keys_ignore_layout_engine():
    """One layout engine, so no engine rides in the layout and
    unprotected-layout cache keys."""
    from repro.runner.spec import CellSpec
    from repro.runner.stages import layout_payload, unprotected_payload

    cell = CellSpec(benchmark="b14", scale=0.03, key_bits=16)
    assert "engine" not in layout_payload(cell)
    assert "engine" not in unprotected_payload(cell)


def test_attack_key_names_no_engine():
    """The attack key carries neither a layout nor a SAT engine."""
    from repro.runner.spec import CellSpec, proximity_cell
    from repro.runner.stages import attack_payload

    cell = proximity_cell(CellSpec(benchmark="b14", scale=0.03, key_bits=16))
    assert set(attack_payload(cell)) == {
        "stage",
        "layout",
        "scenario",
        "attack",
        "postprocess_seed",
        "hd_patterns",
        "hd_seed",
    }


# ----------------------------------------------------------------------
# Row-occupancy structure (the compiled legalizer's core)
# ----------------------------------------------------------------------
def test_row_occupancy_matches_reference_gap_scan():
    """Randomised cross-check against the reference nearest-gap scan."""
    import random

    def reference_scan(reserved, site, width, spr):
        runs = sorted(reserved)
        best, best_cost, cursor = None, float("inf"), 0
        for run_start, run_end in runs + [(spr, spr)]:
            gap_start, gap_end = cursor, run_start
            cursor = max(cursor, run_end)
            if gap_end - gap_start < width:
                continue
            candidate = min(max(site, gap_start), gap_end - width)
            cost = abs(candidate - site)
            if cost < best_cost:
                best_cost, best = cost, candidate
        return best

    rng = random.Random(99)
    for _ in range(3000):
        spr = rng.randrange(5, 50)
        occupancy = _RowOccupancy()
        reserved = []
        for _ in range(rng.randrange(0, 7)):
            start = rng.randrange(0, spr)
            width = rng.randrange(1, 5)
            reserved.append((start, start + width))
            occupancy.reserve(start, start + width)
        site = rng.randrange(0, spr)
        width = rng.randrange(1, 5)
        assert occupancy.nearest_fit(site, width, spr) == reference_scan(
            reserved, site, width, spr
        )


# ----------------------------------------------------------------------
# End-to-end: the public entry points agree with the oracle flow
# ----------------------------------------------------------------------
def _locked_layout_both_ways(monkeypatch, locked, **kwargs):
    """``build_locked_layout`` as it runs, then again with its place,
    route and split entry points swapped for the reference flow."""
    compiled = build_locked_layout(locked, **kwargs)
    with monkeypatch.context() as patch:
        calls = patch_reference(
            patch,
            "repro.phys.layout",
            place=place_reference,
            route_design=route_reference,
            split_layout=split_reference,
        )
        reference = build_locked_layout(locked, **kwargs)
        reference_view = reference.feol_view()
    assert calls == ["place_reference", "route_reference", "split_reference"]
    return (reference, reference_view), (compiled, compiled.feol_view())


def _assert_layouts_identical(ref, cmp):
    (ref_layout, ref_view), (cmp_layout, cmp_view) = ref, cmp
    assert ref_layout.placement.locations == cmp_layout.placement.locations
    assert ref_layout.placement.widths_sites == cmp_layout.placement.widths_sites
    ref_nets, cmp_nets = ref_layout.routing.nets, cmp_layout.routing.nets
    assert list(ref_nets) == list(cmp_nets)
    assert all(ref_nets[n] == cmp_nets[n] for n in ref_nets)
    assert ref_view.source_stubs == cmp_view.source_stubs
    assert ref_view.sink_stubs == cmp_view.sink_stubs
    assert ref_view.visible_nets == cmp_view.visible_nets
    assert asdict(
        measure_layout_cost(
            ref_layout.circuit, ref_layout.floorplan, ref_layout.routing
        )
    ) == asdict(
        measure_layout_cost(
            cmp_layout.circuit, cmp_layout.floorplan, cmp_layout.routing
        )
    )


def test_build_locked_layout_identical_across_knob(monkeypatch):
    """The public flow equals itself run on the reference functions."""
    locked = _locked(
        generate_random_circuit(
            GeneratorConfig(10, 5, 120), seed=21, name="flow120"
        ),
        key_bits=10,
    )
    ref, cmp = _locked_layout_both_ways(
        monkeypatch, locked, split_layer=4, seed=2019
    )
    _assert_layouts_identical(ref, cmp)


@pytest.mark.slow
@pytest.mark.parametrize(
    "name, key_bits", [("c880", 24), ("b14", 32), ("c7552", 64)]
)
def test_full_profiles_identical_to_oracle(monkeypatch, name, key_bits):
    """Full-size ISCAS-85 and ITC'99 profiles, M4, lock seed 2019."""
    if name.startswith("c"):
        circuit = load_iscas85(name)
    else:
        circuit = load_itc99(name).combinational_core()
    ref, cmp = _locked_layout_both_ways(
        monkeypatch, _locked(circuit, key_bits), split_layer=4, seed=2019
    )
    _assert_layouts_identical(ref, cmp)


def test_layout_cost_study_pipeline_matches_standalone():
    """The Fig. 5 stage through the runner equals the inline path."""
    from repro.runner.spec import CellSpec
    from repro.runner.stages import layout_cost_runs
    from repro.phys import (
        build_locked_layout as bll,
        build_unprotected_layout,
        measure_layout_cost as mlc,
    )

    cell = CellSpec(
        benchmark="random:i10-o5-g120", key_bits=10, max_candidates=350
    )
    pipelined = layout_cost_runs(cell, cache=None)

    core = generate_random_circuit(
        GeneratorConfig(10, 5, 120), seed=cell.seed, name=cell.benchmark
    ).combinational_core()
    locked, _ = atpg_lock(
        core,
        AtpgLockConfig(
            key_bits=10, seed=cell.seed, run_lec=False, max_candidates=350
        ),
    )
    base_layout = build_unprotected_layout(core, seed=cell.seed)
    base = mlc(core, base_layout.floorplan, base_layout.routing)
    prelift = bll(locked, seed=cell.seed, prelift=True)
    m4 = bll(locked, split_layer=4, seed=cell.seed)
    m6 = bll(locked, split_layer=6, seed=cell.seed)
    standalone = {
        "prelift": mlc(
            prelift.circuit, prelift.floorplan, prelift.routing
        ).delta_percent(base),
        "M4": mlc(m4.circuit, m4.floorplan, m4.routing).delta_percent(base),
        "M6": mlc(m6.circuit, m6.floorplan, m6.routing).delta_percent(base),
    }
    assert pipelined == standalone
