"""Loop breaking in recovered netlists: differential tests.

Two string-keyed breakers are kept here as oracles for the int breaker
the recovered machine runs (:func:`repro.attacks.result.recovered_machine`):

* :func:`reference_break_cycles` — the loop breaker the attack shipped
  with first: one full ``topological_order`` and Kahn peel per broken
  pin;
* :func:`peel_break_cycles` — its incremental-peel successor, the
  breaker ``rebuild_netlist`` ran on a :class:`Circuit` before the
  netlist moved onto index arrays.

:func:`reference_rebuild_netlist` is that string-keyed
``rebuild_netlist``, verbatim.  The contract under test: on every
netlist, all three breakers break the same pins in the same order, so
gate order, fanins, ``_loopbrk`` names, the leftover patched pins and
the return count are all equal, and a cycle through FEOL-visible edges
still raises ``RuntimeError``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import random_guess_attack
from repro.attacks.result import _nearest_source, rebuild_netlist
from repro.netlist.circuit import Circuit, NetlistError
from repro.netlist.gate_types import SOURCE_TYPES, GateType
from repro.phys.split import FeolView, SinkStub
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


def peel_break_cycles(circuit, patched_pins: set[tuple[str, int]]) -> int:
    """Tie cycle-closing *attacker-patched* pins to constant 0.

    The gates Kahn peeling cannot remove (DFFs count as sources) are the
    members and feeders of cycles.  The pin broken next is the first
    patched pin, in gate-name order, whose gate and driver both survive
    the peel; repeat until the peel removes every gate.  One peel serves
    every break: a broken pin reads a fresh tie cell, so its gate waits
    on one fanin less and the peel continues from there.  Breaking only
    ever shrinks the set of eligible pins, so one pointer walks the
    sorted surviving gates once.  Returns the number of pins broken.
    """
    gates = circuit.gates
    readers = {net: list(names) for net, names in circuit.fanout_map().items()}
    pending: dict[str, int] = {}  # unpeeled gate -> fanins not yet peeled
    ready: list[str] = []
    for gate in gates.values():
        if gate.gate_type in SOURCE_TYPES or gate.is_dff:
            ready.append(gate.name)
        else:
            pending[gate.name] = len(gate.fanin)

    def peel(ready: list[str]) -> None:
        while ready:
            for reader in readers[ready.pop()]:
                if reader in pending:  # DFF readers do not wait on D
                    pending[reader] -= 1
                    if pending[reader] == 0:
                        del pending[reader]
                        ready.append(reader)

    def breakable_pin(name: str) -> int | None:
        """Position of *name*'s first patched pin inside the loops."""
        if name in pending:
            for position, fin in enumerate(gates[name].fanin):
                if (name, position) in patched_pins and fin in pending:
                    return position
        return None

    peel(ready)
    order = sorted(pending)
    cursor = broken = 0
    while pending:
        while cursor < len(order) and breakable_pin(order[cursor]) is None:
            cursor += 1
        if cursor == len(order):  # a cycle through visible edges only
            raise RuntimeError("unbreakable cycle in recovered netlist")
        name = order[cursor]
        position = breakable_pin(name)
        gate = gates[name]
        tie = circuit.fresh_name(f"{name}_loopbrk")
        circuit.add(tie, GateType.TIELO)
        fanin = list(gate.fanin)
        readers[fanin[position]].remove(name)
        fanin[position] = tie
        circuit.replace_gate(gate.with_fanin(fanin))
        patched_pins.discard((name, position))
        broken += 1
        pending[name] -= 1
        if pending[name] == 0:
            del pending[name]
            peel([name])
    return broken


def reference_patched_netlist(
    view: FeolView, assignment: dict[int, str], name: str
) -> tuple[Circuit, set[tuple[str, int]]]:
    """The string-keyed rebuild up to (not including) loop breaking:
    the patched netlist and its patched pins."""
    rebuilt = Circuit(name)
    patch: dict[tuple[str, int], str] = {}
    output_patch: dict[str, str] = {}
    for stub in view.sink_stubs:
        target = assignment.get(stub.stub_id)
        if target is None:
            target = _nearest_source(view, stub)
        if target is None:
            continue
        if stub.owner.startswith("PO:"):
            output_patch[stub.owner[3:]] = target
        else:
            patch[(stub.owner, stub.pin_index)] = target

    for gate in view.gates.values():
        if gate.is_input:
            rebuilt.add(gate.name, gate.gate_type)
            continue
        fanin = list(gate.fanin)
        for position in range(len(fanin)):
            key = (gate.name, position)
            if key in patch:
                fanin[position] = patch[key]
        rebuilt.add(gate.name, gate.gate_type, tuple(fanin))

    for net in view.outputs:
        target = output_patch.get(net, net)
        if target in rebuilt.outputs:
            alias = rebuilt.fresh_name(f"{target}_poalias")
            rebuilt.add(alias, GateType.BUF, (target,))
            target = alias
        rebuilt.add_output(target)
    return rebuilt, set(patch)


def reference_rebuild_netlist(
    view: FeolView, assignment: dict[int, str], name: str
) -> Circuit:
    """The string-keyed ``rebuild_netlist``: patch, alias, break loops."""
    rebuilt, patched = reference_patched_netlist(view, assignment, name)
    peel_break_cycles(rebuilt, patched)
    return rebuilt


def machine_break_cycles(circuit, patched_pins: set[tuple[str, int]]) -> int:
    """The int breaker, run in place like the oracles.

    The circuit becomes a view whose every patched pin is a broken sink
    assigned its current driver; the recovered machine's rendering then
    replaces the circuit's gates.  It raises before editing anything.
    """
    view = FeolView(circuit.name, 4)
    view.gates = dict(circuit.gates)
    view.outputs = list(circuit.outputs)
    pins = sorted(patched_pins)
    view.sink_stubs = [
        SinkStub(k, name, position, "", 0.0, 0.0, True)
        for k, (name, position) in enumerate(pins)
    ]
    fanins = [circuit.gates[name].fanin for name, _position in pins]
    assignment = {  # a pin the gate lacks patches nothing
        k: fanin[position] if position < len(fanin) else name
        for k, ((name, position), fanin) in enumerate(zip(pins, fanins))
    }
    rendered = rebuild_netlist(view, assignment, circuit.name)
    ties = [name for name in rendered.gates if name not in circuit.gates]
    for name, gate in rendered.gates.items():
        if name in circuit.gates and gate != circuit.gates[name]:
            circuit.replace_gate(gate)
    for name in ties:
        circuit.add_gate(rendered.gates[name])
    patched_pins -= {
        (name, position)
        for name, position in pins
        if set(rendered.gates[name].fanin[position : position + 1]) & set(ties)
    }
    return len(ties)


def _break_all(circuit: Circuit, patched_pins: set[tuple[str, int]]):
    """Run every breaker on copies; assert equal outcomes and netlists.

    The int breaker raises before editing anything, so on an unbreakable
    cycle only its error is compared.
    """
    outcomes = []
    for breaker in (peel_break_cycles, reference_break_cycles, machine_break_cycles):
        copy, pins = circuit.copy(), set(patched_pins)
        try:
            outcome = breaker(copy, pins)
        except RuntimeError as exc:
            outcome = str(exc)
        outcomes.append((outcome, list(copy.gates.items()), copy.outputs, pins))
    assert outcomes[0] == outcomes[1]
    if isinstance(outcomes[2][0], str):
        assert outcomes[2][0] == outcomes[0][0]
    else:
        assert outcomes[2] == outcomes[0]
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


def test_random_guess_rebuilds_match_reference(smoke_view):
    broken = []
    for seed in range(4):
        result = random_guess_attack(smoke_view, seed=seed)
        circuit, pins = reference_patched_netlist(
            smoke_view, result.assignment, result.netlist_name
        )
        broken.append(_break_all(circuit, pins))
        want = reference_rebuild_netlist(
            smoke_view, result.assignment, result.netlist_name
        )
        assert list(result.recovered.gates.items()) == list(want.gates.items())
        assert result.recovered.outputs == want.outputs
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
    _break_all(*instance)


def test_patched_loop_is_broken_at_first_gate_name():
    circuit = Circuit("loop")
    circuit.add_input("a")
    circuit.add("x", GateType.AND, ("a", "y"))
    circuit.add("y", GateType.NOT, ("x",))
    circuit.add_output("y")
    pins = {("x", 1), ("y", 0)}
    assert _break_all(circuit, pins) == 1
    assert machine_break_cycles(circuit, pins) == 1
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
    assert _break_all(circuit, set()) == "unbreakable cycle in recovered netlist"
    with pytest.raises(RuntimeError, match="unbreakable cycle"):
        machine_break_cycles(circuit, {("a", 0)})
