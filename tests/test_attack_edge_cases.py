"""Proximity-attack edge cases: degenerate views and circuits.

The satellite cases: an *empty cut set* (a split so high nothing is
broken), *single-candidate* nets, exactly *tied* distance scores, and
*constant-output* circuits — where simulation is involved, checked
against the big-int oracle of ``tests/bigint_sim.py``.
"""

from __future__ import annotations

import pytest

from repro.adversary import (
    SCENARIOS,
    build_candidates,
    evaluate,
    get_engine,
    run_scenario,
)
from repro.adversary.engine import AttackContext
from repro.attacks import proximity_attack
from repro.attacks.result import rebuild_netlist
from repro.locking import AtpgLockConfig, atpg_lock
from repro.metrics import compute_ccr, compute_hd_oer
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType
from repro.phys import build_locked_layout
from repro.phys.layout import build_unprotected_layout
from repro.phys.split import FeolView, SinkStub, SourceStub
from tests.bigint_sim import reference_hd_oer
from tests.conftest import build_random_circuit

ENGINES = ("proximity", "netflow", "learned", "random")


def _scenario_context(view, name, locked=None):
    scenario = SCENARIOS[name].resolve()
    return AttackContext(
        view=view,
        scenario=scenario,
        seed=scenario.seed,
        budget=scenario.budget,
        locked=locked,
    )


# ----------------------------------------------------------------------
# Empty cut set: the split breaks nothing
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def empty_view():
    circuit = build_random_circuit(3, num_inputs=8, num_gates=60, num_outputs=4)
    layout = build_unprotected_layout(circuit, seed=1)
    view = layout.feol_view(99)  # far above the routing stack
    assert not view.source_stubs and not view.sink_stubs
    return circuit, view


@pytest.mark.parametrize("engine_name", ENGINES)
def test_empty_cut_set_yields_perfect_netlist(empty_view, engine_name):
    circuit, view = empty_view
    result = get_engine(engine_name).run(_scenario_context(view, engine_name if engine_name in SCENARIOS else "random"))
    assert result.assignment == {}
    ccr = compute_ccr(result)
    assert ccr.regular_ccr == 0.0 and ccr.regular_broken == 0
    assert ccr.key_broken == 0
    # nothing was hidden, so the "recovered" netlist is exact
    report = compute_hd_oer(circuit, result.recovered, patterns=256)
    assert report.hd_percent == 0.0 and report.oer_percent == 0.0


def test_empty_cut_set_candidates_are_empty(empty_view):
    from repro.adversary import FEATURE_NAMES

    _, view = empty_view
    candidates = build_candidates(view, per_sink=8, with_labels=True)
    assert candidates.num_pairs == 0
    assert candidates.features.shape == (0, len(FEATURE_NAMES))
    assert candidates.labels.size == 0


# ----------------------------------------------------------------------
# Single-candidate and tied-distance synthetic views
# ----------------------------------------------------------------------
def _pair_circuit() -> Circuit:
    circuit = Circuit("pairs")
    circuit.add_input("a")
    circuit.add_input("b")
    circuit.add_input("c")
    circuit.add("g1", GateType.AND, ("a", "b"))
    circuit.add("g2", GateType.OR, ("g1", "c"))
    circuit.add_output("g2")
    return circuit


def _view_with(sources, sinks) -> FeolView:
    circuit = _pair_circuit()
    view = FeolView("pairs", 4)
    view.gates = dict(circuit.gates)
    view.outputs = list(circuit.outputs)
    view.source_stubs = list(sources)
    view.sink_stubs = list(sinks)
    return view


def test_single_candidate_net_is_matched_by_every_engine():
    # One broken connection, one possible driver: a -> g1 pin 0.
    source = SourceStub(0, "PAD:a", "a", 1.0, 1.0, False, None, None)
    sink = SinkStub(1, "g1", 0, "a", 4.0, 1.0, True, None)
    for engine_name in ("proximity", "netflow", "random"):
        view = _view_with([source], [sink])
        result = get_engine(engine_name).run(
            _scenario_context(view, engine_name)
        )
        assert result.assignment == {1: "a"}, engine_name
        assert compute_ccr(result).regular_ccr == 100.0


def test_tied_distance_scores_resolve_deterministically():
    # Two sources exactly equidistant from the sink; the attack must
    # commit the same choice on every run (stable stub-id order).
    tie_a = SourceStub(0, "PAD:a", "a", 0.0, 0.0, False, None, None)
    tie_b = SourceStub(1, "PAD:b", "b", 0.0, 4.0, False, None, None)
    sink = SinkStub(2, "g1", 0, "a", 0.0, 2.0, True, None)
    picks = set()
    for _ in range(3):
        view = _view_with([tie_a, tie_b], [sink])
        result = proximity_attack(view)
        picks.add(result.assignment[2])
    assert len(picks) == 1  # deterministic under exact ties
    for _ in range(2):
        view = _view_with([tie_a, tie_b], [sink])
        netflow = get_engine("netflow").run(_scenario_context(view, "netflow"))
        picks.add(netflow.assignment[2])
    assert len(picks) == 1  # both matchers agree on the tie-break


def test_rebuild_handles_self_loop_only_candidates():
    # The only candidate source is the sink's own gate: rebuild must
    # still produce a complete, acyclic netlist via the fallback.
    source = SourceStub(0, "g1", "g1", 1.0, 1.0, False, None, None)
    sink = SinkStub(1, "g1", 0, "a", 2.0, 1.0, True, None)
    view = _view_with([source], [sink])
    rebuilt = rebuild_netlist(view, {}, "fallback")
    rebuilt.topological_order()  # must not raise


# ----------------------------------------------------------------------
# Degenerate constant-output circuits, under both sim engines
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def constant_design():
    circuit = Circuit("const")
    for name in ("a", "b", "s"):
        circuit.add_input(name)
    circuit.add("na", GateType.NOT, ("a",))
    circuit.add("z0", GateType.AND, ("a", "na"))  # constant 0
    circuit.add("z1", GateType.OR, ("a", "na"))  # constant 1
    circuit.add("z2", GateType.AND, ("b", "s"))  # live logic
    circuit.add_output("z0")
    circuit.add_output("z1")
    circuit.add_output("z2")
    locked, _ = atpg_lock(
        circuit, AtpgLockConfig(key_bits=4, seed=3, run_lec=False)
    )
    layout = build_locked_layout(locked, split_layer=4, seed=1)
    return circuit, locked, layout.feol_view()


def test_constant_outputs_attacked_identically_on_both_engines(constant_design):
    circuit, _, view = constant_design
    result = proximity_attack(view)
    report = compute_hd_oer(circuit, result.recovered, patterns=512)
    # Constant cones cap the reachable HD: z0/z1 cannot differ unless
    # the attacker breaks the constant, so whatever the number is the
    # big-int oracle must report it bit for bit.
    assert report == reference_hd_oer(circuit, result.recovered, patterns=512)
    assert 0.0 <= report.hd_percent <= 100.0


def test_constant_circuit_scenarios_run_on_both_engines(
    monkeypatch, constant_design
):
    circuit, locked, view = constant_design
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return compute_hd_oer(*args, **kwargs)

    monkeypatch.setattr(evaluate, "compute_hd_oer", spy)
    outcome = run_scenario(
        SCENARIOS["netflow"].resolve(),
        view,
        locked,
        circuit,
        "const",
        4,
        hd_patterns=512,
    )
    assert outcome.hd_oer is not None
    assert outcome.sim_engine == "compiled-array"
    [(args, kwargs)] = calls
    assert outcome.hd_oer == reference_hd_oer(*args, **kwargs)
