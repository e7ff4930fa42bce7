"""The loop hint's packed reachability matrix against the set relation.

:func:`set_initial_reachability`, :func:`set_commit_edge` and
:func:`set_creates_loop` are the ``dict[str, set[str]]`` versions the
proximity attack and the network-flow loop repair shipped with, kept
verbatim as the oracle.  The contract under test:

* after every committed edge, the packed matrix decodes to the set
  relation, and the loop test agrees with the set one on every pair;
* the set version's quirks hold: a DFF's row starts empty (and no row
  starts with a DFF in it), and owners outside the FEOL skeleton are
  no-ops;
* the attacks commit the same edges: equal proximity assignments and
  ``rejected`` counts on the smoke, Tables I/II and Table III views, and
  an equal loop-repaired network-flow assignment on the smoke view.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import netflow as netflow_module
from repro.adversary.netflow import flow_assignment
from repro.attacks import proximity as proximity_module
from repro.attacks.hints import Reachability, _feol_skeleton, creates_loop
from repro.attacks.proximity import (
    ProximityAttackConfig,
    commit_edge,
    initial_reachability,
    proximity_attack,
)
from repro.benchgen import TABLE_III_BENCHMARKS
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType
from repro.phys.split import FeolView, SinkStub, SourceStub
from repro.runner.profiles import attack_smoke_campaign, current_profile
from repro.runner.spec import AttackCampaignSpec
from repro.runner.stages import cell_defense, cell_layout, locked_design
from tests.test_netflow import _instance


def set_initial_reachability(view: FeolView, skeleton=None) -> dict[str, set[str]]:
    """gate -> gates reachable from it through FEOL-visible edges."""
    if skeleton is None:
        skeleton = _feol_skeleton(view)
    reaches: dict[str, set[str]] = {name: set() for name in skeleton.gates}
    fanout = skeleton.fanout_map()
    for net in reversed(skeleton.topological_order()):
        gate = skeleton.gates[net]
        if gate.is_dff:
            continue
        acc = reaches[net]
        acc.add(net)
        for reader in fanout[net]:
            if skeleton.gates[reader].is_dff:
                continue
            acc.update(reaches[reader])
    return reaches


def set_commit_edge(
    reaches: dict[str, set[str]], view: FeolView, source, sink
) -> None:
    """Record source -> sink in the incremental reachability relation."""
    if sink.owner.startswith("PO:") or source.owner.startswith("PAD:"):
        return
    if source.is_tie:
        return
    driver = source.owner
    if driver not in reaches or sink.owner not in reaches:
        return
    downstream = reaches[sink.owner] | {sink.owner}
    for gate, reach in reaches.items():
        if driver in reach or gate == driver:
            reach.update(downstream)


def set_creates_loop(
    reaches: dict[str, set[str]], source: SourceStub, sink: SinkStub
) -> bool:
    """Would connecting source -> sink close a combinational cycle?"""
    if source.is_tie:
        return False
    if sink.owner.startswith("PO:"):
        return False
    driver_gate = source.owner
    if driver_gate.startswith("PAD:"):
        return False
    return driver_gate in reaches.get(sink.owner, set())


def as_sets(reaches: Reachability) -> dict[str, set[str]]:
    """Decode the packed matrix into the set relation."""
    names = list(reaches.index)
    return {
        gate: {other for j, other in enumerate(names) if reaches.has(i, j)}
        for gate, i in reaches.index.items()
    }


def _assert_same_loops(packed, sets, sources, sinks) -> None:
    for source in sources:
        for sink in sinks:
            want = set_creates_loop(sets, source, sink)
            assert creates_loop(packed, source, sink) == want, (source, sink)


# ---------------------------------------------------------------------------
# Small synthetic views

_TYPES = (GateType.AND, GateType.NAND, GateType.XOR, GateType.NOT, GateType.DFF)


@st.composite
def reachability_instances(draw):
    """(view, sources, sinks, commits) over a small netlist with DFFs.

    Sinks cover gate pins (DFF data pins too), output pads and an owner
    outside the skeleton; sources cover gates, pads, TIE cells and an
    owner outside the skeleton.  *commits* index (source, sink) pairs.
    """
    circuit = Circuit("reach")
    nets = [circuit.add_input(f"i{k}").name for k in range(draw(st.integers(1, 3)))]
    for k in range(draw(st.integers(1, 70))):
        gate_type = draw(st.sampled_from(_TYPES))
        arity = 1 if gate_type in (GateType.NOT, GateType.DFF) else 2
        fanin = [draw(st.sampled_from(nets)) for _ in range(arity)]
        nets.append(circuit.add(f"g{k}", gate_type, fanin).name)
    circuit.add_output(nets[-1])
    view = FeolView("reach", 4)
    view.gates = dict(circuit.gates)
    view.outputs = list(circuit.outputs)
    pins = [
        (gate.name, position)
        for gate in circuit.gates.values()
        for position in range(len(gate.fanin))
    ]
    owners = draw(st.lists(st.sampled_from(pins), unique=True, max_size=8))
    owners += [(f"PO:{nets[-1]}", 0), ("nowhere", 0)]
    view.sink_stubs = [
        SinkStub(k, owner, pin, "", 0.0, 0.0, True)
        for k, (owner, pin) in enumerate(owners)
    ]
    drivers = draw(st.lists(st.sampled_from(nets), min_size=1, max_size=8))
    sources = [
        SourceStub(100 + k, net, net, 0.0, 0.0, False, None, None)
        for k, net in enumerate(drivers)
    ]
    sources += [
        SourceStub(200, "PAD:i0", "i0", 0.0, 0.0, False, None, None),
        SourceStub(201, "tie0", "tie0", 0.0, 0.0, True, 0, None),
        SourceStub(202, "elsewhere", "elsewhere", 0.0, 0.0, False, None, None),
    ]
    view.source_stubs = sources
    pairs = st.tuples(
        st.integers(0, len(sources) - 1), st.integers(0, len(view.sink_stubs) - 1)
    )
    commits = draw(st.lists(pairs, max_size=12))
    return view, sources, view.sink_stubs, commits


@settings(max_examples=200, deadline=None)
@given(reachability_instances())
def test_packed_relation_tracks_the_set_relation(instance):
    view, sources, sinks, commits = instance
    packed, sets = initial_reachability(view), set_initial_reachability(view)
    assert list(packed.index) == list(sets)
    assert as_sets(packed) == sets
    _assert_same_loops(packed, sets, sources, sinks)
    for source_i, sink_i in commits:
        commit_edge(packed, view, sources[source_i], sinks[sink_i])
        set_commit_edge(sets, view, sources[source_i], sinks[sink_i])
        assert as_sets(packed) == sets
        _assert_same_loops(packed, sets, sources, sinks)


def _seq_view() -> tuple[FeolView, list[SourceStub], list[SinkStub]]:
    """a -> g1 -> q (DFF) -> g2, with g1's pin broken.

    The stub on q names a pin the flip-flop does not have, so q keeps
    its data pin and stays a DFF in the skeleton.
    """
    circuit = Circuit("seq")
    circuit.add_input("a")
    circuit.add("g1", GateType.NOT, ("a",))
    circuit.add("q", GateType.DFF, ("g1",))
    circuit.add("g2", GateType.NOT, ("q",))
    circuit.add_output("g2")
    view = FeolView("seq", 4)
    view.gates = dict(circuit.gates)
    view.outputs = ["g2"]
    view.sink_stubs = [
        SinkStub(0, "g1", 0, "a", 0.0, 0.0, True),
        SinkStub(1, "q", 1, "g1", 0.0, 0.0, True),
    ]
    view.source_stubs = [
        SourceStub(10 + k, gate, gate, 0.0, 0.0, False, None, None)
        for k, gate in enumerate(("g1", "g2", "q"))
    ]
    return view, view.source_stubs, view.sink_stubs


def test_dff_rows_start_empty_and_only_commits_fill_them():
    view, sources, sinks = _seq_view()
    skeleton = _feol_skeleton(view)
    assert [name for name, gate in skeleton.gates.items() if gate.is_dff] == ["q"]
    packed, sets = initial_reachability(view), set_initial_reachability(view)
    assert as_sets(packed) == sets
    assert sets["q"] == set()
    assert sets["g1"] == {"g1"}  # the walk stops at the flip-flop
    assert sets["g2"] == {"g2"}
    _assert_same_loops(packed, sets, sources, sinks)
    commit_edge(packed, view, sources[1], sinks[1])  # g2 -> q
    set_commit_edge(sets, view, sources[1], sinks[1])
    assert as_sets(packed) == sets
    assert sets["g2"] == {"g2", "q"} and sets["q"] == set()
    _assert_same_loops(packed, sets, sources, sinks)


def test_owners_outside_the_skeleton_are_no_ops():
    view, (g1, g2, _), (g1_pin, _) = _seq_view()
    packed = initial_reachability(view)
    before = packed.bits.copy()
    stray_source = SourceStub(20, "elsewhere", "x", 0.0, 0.0, False, None, None)
    stray_sink = SinkStub(21, "nowhere", 0, "x", 0.0, 0.0, True)
    commit_edge(packed, view, stray_source, g1_pin)
    commit_edge(packed, view, g1, stray_sink)
    assert np.array_equal(packed.bits, before)
    assert not creates_loop(packed, stray_source, g1_pin)
    assert not creates_loop(packed, g2, stray_sink)


# ---------------------------------------------------------------------------
# The paper's views: the attacks commit the same edges


@pytest.fixture()
def set_relation(monkeypatch):
    """Run the attacks on the set oracle instead of the packed matrix."""

    def patch():
        for module in (proximity_module, netflow_module):
            monkeypatch.setattr(module, "initial_reachability", set_initial_reachability)
            monkeypatch.setattr(module, "commit_edge", set_commit_edge)
            monkeypatch.setattr(module, "creates_loop", set_creates_loop)

    return patch


def _proximity(view, config: ProximityAttackConfig) -> tuple:
    result = proximity_attack(view, config)
    return result.assignment, result.diagnostics["rejected"]


def _assert_same_attacks(views_and_configs, monkeypatch, set_relation) -> None:
    packed = [_proximity(view, config) for view, config in views_and_configs]
    with monkeypatch.context():
        set_relation()
        sets = [_proximity(view, config) for view, config in views_and_configs]
    assert packed == sets
    assert any(rejected["loop"] for _, rejected in packed)


def test_smoke_view_attacks_match_the_set_relation(monkeypatch, set_relation):
    cell = next(
        c.cell
        for c in attack_smoke_campaign().cells()
        if c.cell.benchmark == "random:i14-o8-g200"
    )
    view = cell_layout(cell, design=locked_design(cell)).feol_view(cell.split_layer)
    _assert_same_attacks([(view, cell.attack)], monkeypatch, set_relation)
    # The network-flow loop repair commits through the same relation.
    instance = _instance(view, "netflow")
    packed = flow_assignment(view, *instance)
    with monkeypatch.context():
        set_relation()
        assert flow_assignment(view, *instance) == packed
    assert packed[1]["loop_repairs"] > 0


@pytest.mark.slow
def test_tables_views_attacks_match_the_set_relation(monkeypatch, set_relation):
    cells = current_profile().table_campaign().cells()
    assert len(cells) == 12
    views = []
    for cell in cells:
        layout = cell_layout(cell, design=locked_design(cell))
        views.append((layout.feol_view(cell.split_layer), cell.attack))
    _assert_same_attacks(views, monkeypatch, set_relation)


@pytest.mark.slow
def test_table3_views_attacks_match_the_set_relation(monkeypatch, set_relation):
    common = dict(
        benchmarks=TABLE_III_BENCHMARKS, scenarios=("proximity",), split_layers=(4,)
    )
    cells = (
        AttackCampaignSpec(
            defenses=("routing-perturbation", "wire-lifting", "beol-restore"),
            key_bits=(0,),
            **common,
        ).cells()
        + AttackCampaignSpec(key_bits=(32,), **common).cells()
    )
    assert len(cells) == 28
    views = []
    for acell in cells:
        cell = acell.cell
        design = locked_design(cell)
        layout = cell_layout(cell, design=design)
        if acell.defense is None:
            view = layout.feol_view(cell.split_layer)
        else:
            view = cell_defense(cell, acell.defense, design=design, layout=layout).view
        views.append((view, cell.attack))
    _assert_same_attacks(views, monkeypatch, set_relation)
