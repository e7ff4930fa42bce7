"""Defense arms-race subsystem: specs, engines, matrix campaigns.

The load-bearing guarantees under test:

* :meth:`Circuit.output_reach_counts` (one reverse-reachability pass)
  agrees with per-net ``transitive_fanout`` cone walks, and the
  ``select_protected_nets`` selection matches a cone-walk scoring;
* every defense engine is deterministic, protects the nets it claims,
  and keeps the ``stub_arrays`` invalidation token honest;
* every defended view equals the one the reference splitter
  (``tests/layout_reference.py``) cuts from the same lifted or
  perturbed routing;
* the ``defense`` stage cache key splits per (scheme, strength, seed),
  while undefended cells keep their historical keys;
* a defense x attack matrix grid plans one sibling group per (layout,
  defense) and the fused path is bit-identical to a per-cell reference;
* :func:`repro.defense.matrix_verdict` judges recovery drops, the
  lifting-family CCR ceiling, and stale/fallback cells.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
from types import SimpleNamespace

import pytest

from repro.benchgen import GeneratorConfig, generate_random_circuit
from repro.defense import (
    DEFENSES,
    DefenseSpec,
    apply_defense,
    default_defense_names,
    defense_engine_names,
    get_defense_engine,
    matrix_verdict,
    parse_defense,
    resolve_defense,
)
from repro.defense.spec import DEFAULT_DEFENSE_SEED, SCHEME_DEFAULTS
from repro.defense.wire_lifting import select_protected_nets
from repro.phys.geometry import stub_arrays
from repro.runner import (
    AttackCampaignSpec,
    AttackCellSpec,
    CellSpec,
    run_attack_campaign,
)
from repro.runner.cli import main as cli_main
from repro.runner.grid import plan_campaign
from repro.runner.serialize import attack_record, canonical_json
from repro.runner.spec import parse_scenario
from repro.runner.stages import attack_payload, cell_layout, defense_payload
from repro.utils.artifact_cache import spec_key
from repro.utils.env import env_fraction
from tests.conftest import per_cell_records
from tests.layout_reference import patch_reference, split_reference

CELL = CellSpec(
    benchmark="random:i10-o5-g90",
    split_layer=4,
    key_bits=10,
    hd_patterns=512,
    max_candidates=60,
)

#: Tiny defense x attack matrix: one layout, three defense axis points,
#: two scenarios — six cells, seconds of runtime.
MATRIX = AttackCampaignSpec(
    benchmarks=("random:i10-o5-g90",),
    scenarios=("netflow", "random"),
    defenses=("none", "wire-lifting-lite", "routing-perturbation"),
    split_layers=(4,),
    key_bits=(10,),
    hd_patterns=512,
    max_candidates=60,
)


@pytest.fixture(scope="module")
def layout():
    return cell_layout(CELL, None)


@pytest.fixture(scope="module")
def matrix_result():
    return run_attack_campaign(MATRIX, workers=1, use_cache=False)


# ---------------------------------------------------------------------------
# Reverse-reachability output counts (wire-lifting net selection)


def test_output_reach_counts_matches_cone_walks():
    circuit = generate_random_circuit(
        GeneratorConfig(num_inputs=8, num_outputs=5, num_gates=70, num_dffs=4),
        seed=7,
        name="reach-dp",
    )
    counts = circuit.output_reach_counts()
    outputs = set(circuit.outputs)
    for net in circuit.gates:
        naive = len(outputs & circuit.transitive_fanout([net]))
        assert counts[net] == naive, net


def test_select_lift_nets_order_unchanged(layout):
    circuit = layout.circuit
    routing = layout.routing
    outputs = set(circuit.outputs)
    scored = []
    for net, routed in routing.nets.items():
        if routed.is_key_net or not routed.routes:
            continue
        span = sum(r.length for r in routed.routes)
        influence = len(outputs & circuit.transitive_fanout([net]))
        scored.append(
            (influence * 40.0 + len(routed.routes) * 10.0 + span, net)
        )
    scored.sort(reverse=True)
    count = max(1, int(len(scored) * 0.3))
    naive = [net for _, net in scored[:count]]
    assert select_protected_nets(circuit, routing, 0.3) == naive


# ---------------------------------------------------------------------------
# Specs: resolution, validation, vocabulary


def test_spec_resolves_published_defaults():
    for name, spec in DEFENSES.items():
        resolved = spec.resolve()
        assert resolved.is_resolved, name
        assert resolved.seed == DEFAULT_DEFENSE_SEED
        defaults = SCHEME_DEFAULTS[spec.scheme]
        for knob, value in defaults.items():
            if getattr(spec, knob) is None:
                assert getattr(resolved, knob) == value, (name, knob)
        # resolution is idempotent and round-trips through JSON
        assert resolved.resolve() == resolved
        payload = json.loads(json.dumps(resolved.to_payload()))
        assert DefenseSpec.from_payload(payload) == resolved


def test_spec_resolution_honours_env_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_DEFENSE_SEED", "77")
    monkeypatch.setenv("REPRO_DEFENSE_FRACTION", "0.5")
    resolved = parse_defense("wire-lifting").resolve()
    assert resolved.seed == 77 and resolved.fraction == 0.5
    # explicit spec values win over the env
    pinned = DefenseSpec("pinned", fraction=0.1, seed=3).resolve()
    assert pinned.seed == 3 and pinned.fraction == 0.1


def test_spec_validation_rejects_bad_knobs():
    with pytest.raises(ValueError, match="unknown defense scheme"):
        DefenseSpec("x", scheme="bogus")
    with pytest.raises(ValueError, match="fraction"):
        DefenseSpec("x", fraction=0.0)
    with pytest.raises(ValueError, match="fraction"):
        DefenseSpec("x", fraction=1.5)
    with pytest.raises(ValueError, match="obfuscation"):
        DefenseSpec("x", obfuscate=1.5)


def test_defense_vocabulary_and_none_baseline():
    assert resolve_defense("none") is None
    with pytest.raises(KeyError, match="none"):
        parse_defense("bogus")
    with pytest.raises(KeyError, match="unknown defense engine"):
        get_defense_engine("bogus")
    assert defense_engine_names() == (
        "beol-restore",
        "routing-perturbation",
        "wire-lifting",
    )
    with pytest.raises(ValueError, match="resolved"):
        apply_defense(parse_defense("wire-lifting"), None, 4)


def test_default_defense_names_narrowed_by_env(monkeypatch):
    assert default_defense_names() == (
        "none",
        "routing-perturbation",
        "wire-lifting",
        "beol-restore",
    )
    monkeypatch.setenv("REPRO_DEFENSE_SCHEME", "wire-lifting")
    assert default_defense_names() == ("none", "wire-lifting")
    monkeypatch.setenv("REPRO_DEFENSE_SCHEME", "none")
    assert default_defense_names() == ("none",)
    monkeypatch.setenv("REPRO_DEFENSE_SCHEME", "bogus")
    with pytest.raises(ValueError):
        default_defense_names()


def test_env_fraction_rejects_bad_values(monkeypatch):
    monkeypatch.setenv("REPRO_DEFENSE_FRACTION", "nope")
    with pytest.raises(ValueError, match="not a number"):
        env_fraction("REPRO_DEFENSE_FRACTION")
    monkeypatch.setenv("REPRO_DEFENSE_FRACTION", "1.5")
    with pytest.raises(ValueError):
        env_fraction("REPRO_DEFENSE_FRACTION")
    monkeypatch.setenv("REPRO_DEFENSE_FRACTION", "")
    assert env_fraction("REPRO_DEFENSE_FRACTION", 0.25) == 0.25


# ---------------------------------------------------------------------------
# Engines: determinism, protection bookkeeping, stub-array invalidation


@pytest.mark.parametrize("name", sorted(DEFENSES))
def test_engines_are_deterministic_and_account_cost(name, layout):
    spec = resolve_defense(name)
    first = apply_defense(spec, layout, CELL.split_layer)
    second = apply_defense(spec, layout, CELL.split_layer)
    assert first.protected_nets == second.protected_nets
    assert first.protected_nets
    assert first.cost == second.cost
    assert first.cost.protected_nets == len(first.protected_nets)
    assert first.cost.cost_units > 0
    stubs = lambda view: [  # noqa: E731
        (s.stub_id, s.x, s.y) for s in view.source_stubs + view.sink_stubs
    ]
    assert stubs(first.view) == stubs(second.view)
    summary = first.summary()
    assert summary["name"] == name and summary["scheme"] == spec.scheme


@pytest.mark.parametrize("name", sorted(DEFENSES))
def test_stub_arrays_invalidate_across_every_engine(name, layout):
    defended = apply_defense(resolve_defense(name), layout, CELL.split_layer)
    view = defended.view
    # every engine reassigns stub lists after the re-split, bumping the
    # invalidation token
    assert getattr(view, "_stub_version", 0) >= 1
    arrays = stub_arrays(view)
    assert {int(i): float(x) for i, x in zip(
        arrays.sink_stub_id, arrays.sink_x
    )} == {s.stub_id: s.x for s in view.sink_stubs}
    assert stub_arrays(view) is arrays  # cached while untouched
    moved = [
        dataclasses.replace(s, x=s.x + 1.0) for s in view.sink_stubs
    ]
    view.sink_stubs = moved
    fresh = stub_arrays(view)
    assert fresh is not arrays
    assert {int(i): float(x) for i, x in zip(
        fresh.sink_stub_id, fresh.sink_x
    )} == {s.stub_id: s.x for s in moved}


@pytest.mark.parametrize(
    "name", ["wire-lifting", "beol-restore", "routing-perturbation"]
)
def test_defended_views_identical_to_oracle_split(name, layout, monkeypatch):
    """The defenses re-split lifted or perturbed routings; those views
    equal the reference splitter's stub for stub."""
    spec = resolve_defense(name)
    compiled = apply_defense(spec, layout, CELL.split_layer)
    with monkeypatch.context() as patch:
        calls = [
            patch_reference(
                patch, module, split_layout=split_reference
            )
            for module in (
                "repro.defense.wire_lifting",
                "repro.defense.routing_perturbation",
            )
        ]
        reference = apply_defense(spec, layout, CELL.split_layer)
    assert sum(calls, []) == ["split_reference"]
    assert reference.protected_nets == compiled.protected_nets
    assert reference.view.source_stubs == compiled.view.source_stubs
    assert reference.view.sink_stubs == compiled.view.sink_stubs
    assert reference.view.visible_nets == compiled.view.visible_nets


# ---------------------------------------------------------------------------
# Copy-on-write routing: the engines replace only the nets they change


def deepcopy_lift_protected(ctx):
    """``lift_protected`` on a deep copy of the whole routing."""
    from repro.defense.wire_lifting import concert_stubs, elevated_cost
    from repro.phys.split import split_layout

    layout = ctx.layout
    routing = copy.deepcopy(layout.routing)
    chosen = select_protected_nets(layout.circuit, routing, ctx.spec.fraction)
    for net in chosen:
        routing.nets[net].lower_layer = ctx.split_layer + 1
    view = split_layout(
        layout.circuit, routing, ctx.split_layer, key_nets=layout.key_nets
    )
    sites = concert_stubs(view, set(chosen), layout, ctx.rng("sites"))
    cost = elevated_cost(routing, chosen, ctx.split_layer)
    total_wl = layout.routing.total_wirelength()
    diagnostics = {
        "lifting_sites": len(sites),
        "elevated_share": (
            cost.elevated_wirelength_um / total_wl if total_wl else 0.0
        ),
    }
    return view, chosen, cost, diagnostics


def deepcopy_perturbation_apply(self, ctx):
    """``RoutingPerturbationEngine.apply`` on a deep copy of the routing."""
    from repro.defense.engine import DefendedView, DefenseCost
    from repro.defense.routing_perturbation import jog_stubs
    from repro.phys.split import split_layout

    layout = ctx.layout
    routing = copy.deepcopy(layout.routing)
    rng = ctx.rng("perturb")
    candidates = [
        net
        for net, routed in routing.nets.items()
        if routed.routes
        and not routed.is_key_net
        and routed.top_layer <= ctx.split_layer
    ]
    rng.shuffle(candidates)
    chosen = candidates[
        : max(1, int(len(candidates) * ctx.spec.fraction))
    ] if candidates else []
    detour_wl = 0.0
    for net in chosen:
        routed = routing.nets[net]
        before = routed.length_um
        routed.lower_layer = ctx.split_layer
        routed.detour_factor = max(
            routed.detour_factor, 1.0 + rng.uniform(0.05, 0.2)
        )
        detour_wl += routed.length_um - before
    view = split_layout(
        layout.circuit, routing, ctx.split_layer, key_nets=layout.key_nets
    )
    jog_stubs(view, set(chosen), rng, ctx.spec.jog_um, ctx.spec.cross_jog_um)
    total_wl = layout.routing.total_wirelength()
    cost = DefenseCost(
        protected_nets=len(chosen),
        via_stacks=0,
        elevated_wirelength_um=detour_wl,
        cost_units=detour_wl,
    )
    diagnostics = {"detour_share": detour_wl / total_wl if total_wl else 0.0}
    return DefendedView(view, ctx.spec, frozenset(chosen), cost, diagnostics)


def build_smoke_layouts():
    """The fixture cell's layout and the matrix-smoke grid's scaled b14
    layout, built afresh."""
    from repro.runner.profiles import defense_smoke_campaign

    cells = (CELL, defense_smoke_campaign().cells()[0].cell)
    return [cell_layout(cell, None) for cell in cells]


@pytest.fixture(scope="module")
def smoke_layouts():
    return build_smoke_layouts()


@pytest.mark.parametrize(
    "name", ["wire-lifting", "beol-restore", "routing-perturbation"]
)
def test_defended_views_equal_deepcopy_routing(name, smoke_layouts, monkeypatch):
    spec = resolve_defense(name)
    for layout in smoke_layouts:
        got = apply_defense(spec, layout, layout.split_layer)
        with monkeypatch.context() as patch:
            for module in ("wire_lifting", "beol_restore"):
                patch.setattr(
                    f"repro.defense.{module}.lift_protected",
                    deepcopy_lift_protected,
                )
            patch.setattr(
                "repro.defense.routing_perturbation."
                "RoutingPerturbationEngine.apply",
                deepcopy_perturbation_apply,
            )
            want = apply_defense(spec, layout, layout.split_layer)
        assert got.view.source_stubs == want.view.source_stubs
        assert got.view.sink_stubs == want.view.sink_stubs
        assert got.view.visible_nets == want.view.visible_nets
        assert got.view.gates == want.view.gates
        assert got.protected_nets == want.protected_nets
        assert got.cost == want.cost
        assert got.diagnostics == want.diagnostics


def test_apply_defense_leaves_the_layout_bytes_unchanged():
    for layout in build_smoke_layouts():
        before = pickle.dumps(layout)
        for name in ("wire-lifting", "beol-restore", "routing-perturbation"):
            apply_defense(resolve_defense(name), layout, layout.split_layer)
        assert pickle.dumps(layout) == before


def test_lifting_engines_erase_proximity_by_cositing(layout):
    defended = apply_defense(
        resolve_defense("wire-lifting"), layout, CELL.split_layer
    )
    sites = {
        (s.x, s.y)
        for s in defended.view.sink_stubs
        if s.net in defended.protected_nets
    }
    # concerted: many protected stubs share few co-sited via locations
    assert len(sites) <= defended.summary()["lifting_sites"]
    protected_sinks = sum(
        1
        for s in defended.view.sink_stubs
        if s.net in defended.protected_nets
    )
    assert protected_sinks > len(sites)


def test_beol_restore_obfuscates_on_top_of_lifting(layout):
    lifted = apply_defense(
        resolve_defense("wire-lifting"), layout, CELL.split_layer
    )
    restored = apply_defense(
        resolve_defense("beol-restore"), layout, CELL.split_layer
    )
    assert restored.protected_nets == lifted.protected_nets
    flipped = restored.summary()["obfuscated_gates"]
    assert flipped > 0
    differs = [
        net
        for net, gate in restored.view.gates.items()
        if layout.circuit.gates[net].gate_type != gate.gate_type
    ]
    assert len(differs) == flipped
    assert set(differs) <= restored.protected_nets


# ---------------------------------------------------------------------------
# Cache keys: the defense stage and the defended attack stage


def test_defense_stage_cache_key_splits():
    def key(spec):
        return spec_key(defense_payload(CELL, spec))

    lifting = resolve_defense("wire-lifting")
    assert key(lifting) != key(resolve_defense("beol-restore"))
    assert key(lifting) != key(resolve_defense("wire-lifting-lite"))
    assert key(lifting) != key(dataclasses.replace(lifting, seed=999))


def test_attack_cache_key_tracks_defense_axis():
    scenario = parse_scenario("netflow").resolve()
    bare = AttackCellSpec(cell=CELL, scenario=scenario)
    defended = AttackCellSpec(
        cell=CELL, scenario=scenario, defense=resolve_defense("wire-lifting")
    )
    # undefended cells keep the historical key shape
    assert "defense" not in attack_payload(bare)
    assert spec_key(attack_payload(bare)) != spec_key(
        attack_payload(defended)
    )
    other = AttackCellSpec(
        cell=CELL, scenario=scenario, defense=resolve_defense("beol-restore")
    )
    assert spec_key(attack_payload(defended)) != spec_key(
        attack_payload(other)
    )
    assert AttackCellSpec.from_payload(defended.to_payload()) == defended
    assert defended.cell_id.endswith("/wire-lifting/netflow")
    assert defended.result_key[-1] == "netflow"
    assert defended.result_key[-2] == "wire-lifting"


# ---------------------------------------------------------------------------
# Matrix campaigns: planning, fused identity, caching, serialization


def test_matrix_expands_and_round_trips():
    cells = MATRIX.cells()
    assert len(cells) == 6
    assert [c.cell_id for c in cells] == [
        "random:i10-o5-g90/M4/k10/netflow",
        "random:i10-o5-g90/M4/k10/random",
        "random:i10-o5-g90/M4/k10/wire-lifting-lite/netflow",
        "random:i10-o5-g90/M4/k10/wire-lifting-lite/random",
        "random:i10-o5-g90/M4/k10/routing-perturbation/netflow",
        "random:i10-o5-g90/M4/k10/routing-perturbation/random",
    ]
    assert AttackCampaignSpec.from_payload(MATRIX.to_payload()) == MATRIX
    with pytest.raises(KeyError):
        AttackCampaignSpec(benchmarks=("b14",), defenses=("bogus",))
    with pytest.raises(ValueError, match="defense"):
        AttackCampaignSpec(benchmarks=("b14",), defenses=())


def test_matrix_plans_one_group_per_layout_defense():
    plan = plan_campaign(MATRIX.cells())
    assert len(plan.groups) == 3
    assert plan.unique_locks == 1
    assert len({g.layout_key for g in plan.groups}) == 1
    keys = [g.defense_key for g in plan.groups]
    assert keys[0] == "" and "" not in keys[1:]
    assert len(set(keys)) == 3
    # scenario siblings of one defense stay fused
    assert all(len(g) == 2 for g in plan.groups)


def test_fused_matrix_matches_unfused(matrix_result):
    assert per_cell_records(MATRIX.cells()) == canonical_json(
        [attack_record(r) for r in matrix_result.cells]
    )


def test_matrix_cached_rerun_is_bit_identical(tmp_path, matrix_result):
    cache_dir = tmp_path / "cache"
    cold = run_attack_campaign(MATRIX, workers=1, cache_dir=cache_dir)
    assert cold.cache_stats().stages["defense"].misses == 2
    warm = run_attack_campaign(MATRIX, workers=1, cache_dir=cache_dir)
    stats = warm.cache_stats()
    assert stats.misses == 0
    assert stats.stages["attack"].hits == len(MATRIX.cells())
    assert stats.stages["defense"].hits == 2
    assert canonical_json(
        [attack_record(r) for r in warm.cells]
    ) == canonical_json([attack_record(r) for r in matrix_result.cells])


def test_defended_outcomes_reduce_effective_recovery(matrix_result):
    outcomes = matrix_result.outcomes()
    baseline = next(
        o
        for k, o in outcomes.items()
        if k[-1] == "netflow" and "wire-lifting-lite" not in k
        and "routing-perturbation" not in k
    )
    floor = baseline.diagnostics["recovery"]["effective_regular_recovery"]
    assert baseline.diagnostics["recovery"]["total_regular_connections"] > 0
    for key, outcome in outcomes.items():
        if key[-1] != "netflow" or outcome is baseline:
            continue
        recovery = outcome.diagnostics["recovery"]
        # the denominator is the undefended layout's population, so the
        # recoveries are directly comparable across the defense axis
        assert (
            recovery["total_regular_connections"]
            == baseline.diagnostics["recovery"]["total_regular_connections"]
        )
        assert recovery["effective_regular_recovery"] < floor, key
        assert "defense" in outcome.diagnostics, key


def test_attack_records_carry_defense_blocks(matrix_result):
    records = [attack_record(r) for r in matrix_result.cells]
    for record in records:
        if record["cell"].get("defense") is None:
            assert "defense" not in record
            continue
        block = record["defense"]
        assert block["name"] == record["cell"]["defense"]["name"]
        assert block["protected_nets"] > 0
        assert block["effective_regular_recovery"] is not None


# ---------------------------------------------------------------------------
# The matrix verdict


def _item(defense, scenario="netflow", recovery=40.0, ccr=0.5, total=100,
          extra=None):
    acell = AttackCellSpec(
        cell=CELL,
        scenario=parse_scenario(scenario).resolve(),
        defense=resolve_defense(defense),
    )
    diagnostics = {
        "recovery": {
            "total_regular_connections": total,
            "effective_regular_recovery": recovery,
        }
    }
    if defense != "none":
        diagnostics["defense"] = {"protected_ccr": ccr}
    if extra:
        diagnostics.update(extra)
    return SimpleNamespace(
        cell=acell,
        outcome=SimpleNamespace(diagnostics=diagnostics),
    )


def test_matrix_verdict_accepts_a_clean_matrix():
    ok, problems = matrix_verdict(
        [
            _item("none", recovery=60.0),
            _item("wire-lifting", recovery=30.0, ccr=0.0),
            _item("routing-perturbation", recovery=50.0, ccr=80.0),
        ]
    )
    assert ok, problems


def test_matrix_verdict_flags_every_failure_mode():
    ok, problems = matrix_verdict([])
    assert not ok and any("no netflow" in p for p in problems)

    ok, problems = matrix_verdict([_item("wire-lifting", recovery=30.0)])
    assert not ok and any("no undefended baseline" in p for p in problems)

    ok, problems = matrix_verdict(
        [_item("none", recovery=60.0), _item("wire-lifting", recovery=60.0)]
    )
    assert not ok and any("did not drop" in p for p in problems)

    ok, problems = matrix_verdict(
        [
            _item("none", recovery=60.0),
            _item("wire-lifting", recovery=30.0, ccr=15.0),
        ]
    )
    assert not ok and any("ceiling" in p for p in problems)

    stale = _item("wire-lifting", recovery=30.0)
    del stale.outcome.diagnostics["recovery"]
    del stale.outcome.diagnostics["defense"]
    ok, problems = matrix_verdict([_item("none", recovery=60.0), stale])
    assert not ok and sum("stale cache" in p for p in problems) == 2


def test_matrix_verdict_passes_on_the_real_matrix(matrix_result):
    # the tiny grid has no "learned" cells, and its 90-gate circuit puts
    # chance-level matches above the b14-tuned lifting CCR ceiling —
    # judge the netflow column of the schemes the ceiling exempts (the
    # full-ceiling verdict runs on the b14 grid in the CI matrix smoke)
    items = [
        r
        for r in matrix_result.cells
        if r.cell.defense is None
        or r.cell.defense.scheme == "routing-perturbation"
    ]
    ok, problems = matrix_verdict(items, scenarios=("netflow",))
    assert ok, problems


# ---------------------------------------------------------------------------
# CLI


def test_cli_attacks_rejects_unknown_defense():
    assert (
        cli_main(["attacks", "--benchmarks", "b14", "--defenses", "bogus"])
        == 2
    )


def test_cli_attacks_runs_a_defense_matrix(tmp_path, capsys):
    code = cli_main(
        [
            "attacks",
            "--benchmarks", "random:i10-o5-g90",
            "--scenarios", "random",
            "--defenses", "none,wire-lifting-lite",
            "--splits", "4",
            "--key-bits", "10",
            "--hd-patterns", "512",
            "--workers", "1",
            "--cache-dir", str(tmp_path / "cli-cache"),
            "--json", str(tmp_path / "out.json"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "wire-lifting-lite" in out
    payload = json.loads((tmp_path / "out.json").read_text())
    assert len(payload) == 2
    defended = [r for r in payload if "defense" in r]
    assert len(defended) == 1
    assert defended[0]["defense"]["scheme"] == "wire-lifting"
