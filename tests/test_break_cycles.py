"""Loop breaking in recovered netlists: differential tests.

:func:`reference_break_cycles` is the loop breaker the attack shipped
with before the incremental peel — one full ``topological_order`` and
Kahn peel per broken pin — kept verbatim as the oracle.  The contract
under test: on every netlist, :func:`_break_cycles` breaks the same
pins in the same order, so gate order, fanins, ``_loopbrk`` names, the
leftover patched pins and the return count are all equal, and a cycle
through FEOL-visible edges still raises ``RuntimeError``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import random_guess_attack
from repro.attacks import result as result_module
from repro.attacks.result import _break_cycles
from repro.netlist.circuit import Circuit, NetlistError
from repro.netlist.gate_types import SOURCE_TYPES, GateType
from repro.runner.profiles import attack_smoke_campaign
from repro.runner.stages import cell_layout, locked_design


def reference_break_cycles(circuit, patched_pins: set[tuple[str, int]]) -> int:
    broken = 0
    while True:
        try:
            circuit.topological_order()
            return broken
        except NetlistError:
            pass
        cyclic = _reference_nets_on_cycles(circuit)
        rewired = False
        for gate_name in sorted(cyclic):
            gate = circuit.gates[gate_name]
            for position, fin in enumerate(gate.fanin):
                if (gate_name, position) in patched_pins and fin in cyclic:
                    tie = circuit.fresh_name(f"{gate_name}_loopbrk")
                    circuit.add(tie, GateType.TIELO)
                    fanin = list(gate.fanin)
                    fanin[position] = tie
                    circuit.replace_gate(gate.with_fanin(fanin))
                    patched_pins.discard((gate_name, position))
                    broken += 1
                    rewired = True
                    break
            if rewired:
                break
        if not rewired:
            raise RuntimeError("unbreakable cycle in recovered netlist")


def _reference_nets_on_cycles(circuit) -> set[str]:
    indegree: dict[str, int] = {}
    ready: list[str] = []
    for gate in circuit.gates.values():
        if gate.gate_type in SOURCE_TYPES or gate.is_dff:
            indegree[gate.name] = 0
            ready.append(gate.name)
        else:
            indegree[gate.name] = len(gate.fanin)
    fanout = circuit.fanout_map()
    cursor = 0
    while cursor < len(ready):
        name = ready[cursor]
        cursor += 1
        for reader in fanout[name]:
            if circuit.gates[reader].is_dff:
                continue
            indegree[reader] -= 1
            if indegree[reader] == 0:
                ready.append(reader)
    return {name for name, degree in indegree.items() if degree > 0}


def _break_both(circuit: Circuit, patched_pins: set[tuple[str, int]]):
    """Run both breakers on copies; assert equal outcomes and netlists."""
    outcomes = []
    for breaker in (_break_cycles, reference_break_cycles):
        copy, pins = circuit.copy(), set(patched_pins)
        try:
            outcome = breaker(copy, pins)
        except RuntimeError as exc:
            outcome = str(exc)
        outcomes.append((outcome, list(copy.gates.items()), copy.outputs, pins))
    assert outcomes[0] == outcomes[1]
    return outcomes[0][0]


# ---------------------------------------------------------------------------
# The paper's instances: random-guess rebuilds of the smoke view


@pytest.fixture(scope="module")
def smoke_view():
    spec = attack_smoke_campaign()
    cell = next(
        c.cell for c in spec.cells() if c.cell.benchmark == "random:i14-o8-g200"
    )
    design = locked_design(cell)
    return cell_layout(cell, design=design).feol_view(cell.split_layer)


def test_random_guess_rebuilds_match_reference(smoke_view, monkeypatch):
    calls = []
    real = result_module._break_cycles

    def spy(circuit, patched_pins):
        calls.append((circuit.copy(), set(patched_pins)))
        return real(circuit, patched_pins)

    monkeypatch.setattr(result_module, "_break_cycles", spy)
    for seed in range(4):
        random_guess_attack(smoke_view, seed=seed)
    assert len(calls) == 4
    broken = [_break_both(circuit, pins) for circuit, pins in calls]
    assert all(isinstance(count, int) for count in broken)
    assert sum(broken) > 0  # the guesses close loops to break


# ---------------------------------------------------------------------------
# Small circuits with loop-closing patched pins

_LOGIC = (GateType.AND, GateType.NAND, GateType.OR, GateType.XOR)
_UNARY = (GateType.NOT, GateType.BUF, GateType.DFF)


@st.composite
def looped_circuits(draw):
    """(circuit, patched pins): a DAG whose patched pins were rewired.

    Gate names are a random permutation, so name order (the breaking
    order) differs from build order.  Rewiring an unpatched pin makes a
    cycle through visible edges possible.
    """
    num_inputs = draw(st.integers(1, 3))
    num_gates = draw(st.integers(1, 12))
    labels = draw(st.permutations(range(num_gates)))
    circuit = Circuit("looped")
    nets = [circuit.add_input(f"i{k}").name for k in range(num_inputs)]
    for label in labels:
        gate_type = draw(st.sampled_from(_LOGIC + _UNARY))
        arity = 1 if gate_type in _UNARY else draw(st.integers(1, 3))
        fanin = [draw(st.sampled_from(nets)) for _ in range(arity)]
        nets.append(circuit.add(f"g{label:02d}", gate_type, fanin).name)
    circuit.add_output(nets[-1])
    pins = [
        (gate.name, position)
        for gate in circuit.gates.values()
        for position in range(len(gate.fanin))
    ]
    patched = set(draw(st.lists(st.sampled_from(pins), unique=True)))
    visible = draw(st.lists(st.sampled_from(pins), unique=True, max_size=1))
    for name, position in sorted(patched | set(visible)):
        gate = circuit.gates[name]
        fanin = list(gate.fanin)
        fanin[position] = draw(st.sampled_from(nets))
        circuit.replace_gate(gate.with_fanin(fanin))
    return circuit, patched


@settings(max_examples=400, deadline=None)
@given(looped_circuits())
def test_small_circuits_match_reference(instance):
    _break_both(*instance)


def test_patched_loop_is_broken_at_first_gate_name():
    circuit = Circuit("loop")
    circuit.add_input("a")
    circuit.add("x", GateType.AND, ("a", "y"))
    circuit.add("y", GateType.NOT, ("x",))
    circuit.add_output("y")
    pins = {("x", 1), ("y", 0)}
    assert _break_both(circuit, pins) == 1
    assert _break_cycles(circuit, pins) == 1
    assert circuit.gates["x"].fanin == ("a", "x_loopbrk")
    assert circuit.gates["x_loopbrk"].gate_type is GateType.TIELO
    assert pins == {("y", 0)}
    circuit.topological_order()


def test_cycle_through_visible_edges_raises():
    circuit = Circuit("visible")
    circuit.add_input("a")
    circuit.add("x", GateType.AND, ("a", "y"))
    circuit.add("y", GateType.NOT, ("x",))
    circuit.add_output("y")
    assert _break_both(circuit, set()) == "unbreakable cycle in recovered netlist"
    with pytest.raises(RuntimeError, match="unbreakable cycle"):
        _break_cycles(circuit, {("a", 0)})
