"""Re-synthesis tests: constant propagation, simplification, strash."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg import StuckAtFault, internal_faults
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType
from repro.netlist.transforms import count_area, insert_buffer, substitute_net
from repro.sim.bitparallel import functions_equal_exhaustive, output_words, random_words
from repro.synth.simplify import _collapse_wire_gates, _remove_buffer
from repro.synth import (
    constant_nets,
    inject_stuck_at,
    propagate_constants,
    resynthesize,
    simplify,
    strash,
)
from tests.conftest import build_random_circuit, tiny_mux_circuit


def _equal_on_random(a, b, patterns=256, seed=0):
    rng = random.Random(seed)
    words = random_words(a.inputs, patterns, rng)
    oa = output_words(a, words, patterns)
    ob = output_words(b, words, patterns)
    return all(oa[x] == ob[y] for x, y in zip(a.outputs, b.outputs))


def test_constant_nets_reports_ties():
    circuit = tiny_mux_circuit()
    circuit.add("one", GateType.TIEHI)
    circuit.add("zero", GateType.TIELO)
    constants = constant_nets(circuit)
    assert constants == {"one": 1, "zero": 0}


def test_constprop_and_with_zero_folds():
    circuit = Circuit("t")
    circuit.add_input("a")
    circuit.add("zero", GateType.TIELO)
    circuit.add("z", GateType.AND, ("a", "zero"))
    circuit.add_output("z")
    propagate_constants(circuit)
    assert circuit.gates["z"].gate_type is GateType.TIELO


def test_constprop_nand_with_zero_is_one():
    circuit = Circuit("t")
    circuit.add_input("a")
    circuit.add("zero", GateType.TIELO)
    circuit.add("z", GateType.NAND, ("a", "zero"))
    circuit.add_output("z")
    propagate_constants(circuit)
    assert circuit.gates["z"].gate_type is GateType.TIEHI


def test_constprop_drops_noncontrolling_inputs():
    circuit = Circuit("t")
    circuit.add_input("a")
    circuit.add_input("b")
    circuit.add("one", GateType.TIEHI)
    circuit.add("z", GateType.AND, ("a", "b", "one"))
    circuit.add_output("z")
    propagate_constants(circuit)
    assert circuit.gates["z"].fanin == ("a", "b")


def test_constprop_xor_absorbs_constants():
    circuit = Circuit("t")
    circuit.add_input("a")
    circuit.add("one", GateType.TIEHI)
    circuit.add("z", GateType.XOR, ("a", "one"))
    circuit.add_output("z")
    propagate_constants(circuit)
    assert circuit.gates["z"].gate_type is GateType.NOT


def test_constprop_respects_protected():
    circuit = Circuit("t")
    circuit.add_input("a")
    circuit.add("key", GateType.TIELO)
    circuit.add("kg", GateType.XOR, ("a", "key"))
    circuit.add_output("kg")
    edits = propagate_constants(circuit, protected={"key", "kg"})
    assert edits == 0
    assert circuit.gates["kg"].gate_type is GateType.XOR


def test_simplify_duplicate_fanin():
    circuit = Circuit("t")
    circuit.add_input("a")
    circuit.add("z", GateType.AND, ("a", "a"))
    circuit.add_output("z")
    simplify(circuit)
    # AND(a,a) -> BUF(a) -> collapsed to direct connection or kept as BUF
    assert circuit.outputs[0] in ("a", "z")


def test_simplify_xor_cancellation():
    circuit = Circuit("t")
    circuit.add_input("a")
    circuit.add("z", GateType.XOR, ("a", "a"))
    circuit.add_output("z")
    simplify(circuit)
    assert circuit.gates[circuit.outputs[0]].gate_type is GateType.TIELO


def test_simplify_double_inverter():
    circuit = Circuit("t")
    circuit.add_input("a")
    circuit.add("n1", GateType.NOT, ("a",))
    circuit.add("n2", GateType.NOT, ("n1",))
    circuit.add("z", GateType.AND, ("n2", "a"))
    circuit.add_output("z")
    reference = circuit.copy("ref")
    simplify(circuit)
    assert functions_equal_exhaustive(circuit, reference)
    assert circuit.gates["z"].fanin == ("a", "a") or "n2" not in circuit.gates


def test_strash_merges_identical_gates():
    circuit = Circuit("t")
    circuit.add_input("a")
    circuit.add_input("b")
    circuit.add("g1", GateType.AND, ("a", "b"))
    circuit.add("g2", GateType.AND, ("b", "a"))  # commutative duplicate
    circuit.add("z", GateType.OR, ("g1", "g2"))
    circuit.add_output("z")
    merged = strash(circuit)
    assert merged == 1
    assert ("g1" in circuit.gates) != ("g2" in circuit.gates)


def test_strash_respects_protected_ties():
    circuit = Circuit("t")
    circuit.add_input("a")
    circuit.add("k0", GateType.TIEHI)
    circuit.add("k1", GateType.TIEHI)
    circuit.add("x0", GateType.XOR, ("a", "k0"))
    circuit.add("x1", GateType.XNOR, ("a", "k1"))
    circuit.add("z", GateType.AND, ("x0", "x1"))
    circuit.add_output("z")
    merged = strash(circuit, protected={"k0", "k1", "x0", "x1"})
    assert merged == 0
    assert "k0" in circuit.gates and "k1" in circuit.gates


def test_strash_preserves_outputs():
    circuit = Circuit("t")
    circuit.add_input("a")
    circuit.add("g1", GateType.NOT, ("a",))
    circuit.add("g2", GateType.NOT, ("a",))
    circuit.add_output("g1")
    circuit.add_output("g2")
    merged = strash(circuit)
    assert merged == 0  # both drive outputs: merging would alias them
    assert circuit.outputs == ["g1", "g2"]


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 400))
def test_resynthesize_preserves_function(seed):
    """Property: full re-synthesis never changes the circuit function."""
    circuit = build_random_circuit(seed, num_inputs=7, num_gates=45)
    reference = circuit.copy("ref")
    resynthesize(circuit)
    assert _equal_on_random(reference, circuit, seed=seed)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 200))
def test_fault_injection_then_resynth_shrinks(seed):
    """Property: injecting a stuck-at never grows the netlist."""
    circuit = build_random_circuit(seed, num_inputs=7, num_gates=50)
    resynthesize(circuit)
    faults = internal_faults(circuit)
    if not faults:
        return
    fault = random.Random(seed).choice(faults)
    injected = inject_stuck_at(circuit, fault)
    report = resynthesize(injected)
    assert report.area_after <= report.area_before + 1e-9


def test_inject_stuck_at_ties_the_net(c17_circuit):
    faulty = inject_stuck_at(c17_circuit, StuckAtFault("N10", 1))
    assert faulty.gates["N10"].gate_type is GateType.TIEHI
    assert c17_circuit.gates["N10"].gate_type is GateType.NAND  # copy


def test_resynth_report_area_accounting(mid_random_circuit):
    before = count_area(mid_random_circuit)
    report = resynthesize(mid_random_circuit)
    assert report.area_before == pytest.approx(before)
    assert report.area_after == pytest.approx(count_area(mid_random_circuit))


def reference_collapse_wire_gates(circuit: Circuit, protected: set[str]) -> int:
    """The BUF sweep that rebuilds the fanout map after every removal."""
    removed = 0
    fanout = circuit.fanout_map()
    for name in list(circuit.gates):
        gate = circuit.gates.get(name)
        if gate is None:
            continue
        if gate.gate_type is not GateType.BUF or gate.name in protected:
            continue
        source = gate.fanin[0]
        if source not in circuit.gates:
            continue
        if any(reader in protected for reader in fanout.get(gate.name, ())):
            continue
        if gate.name in circuit.outputs:
            if source in circuit.outputs or circuit.gates[source].is_input:
                continue
        substitute_net(circuit, gate.name, source)
        circuit.remove_gate(gate.name)
        removed += 1
        fanout = circuit.fanout_map()
    return removed


def _buffered_circuit(seed: int) -> tuple[Circuit, set[str]]:
    """A random netlist with BUF chains, output BUFs, BUFs on inputs and
    a random protected set (some BUFs, some of their readers)."""
    rng = random.Random(seed)
    circuit = build_random_circuit(seed, num_inputs=6, num_gates=40, num_outputs=4)
    nets = [n for n in circuit.gates if n not in circuit.outputs]
    for index, net in enumerate(rng.sample(nets, 12)):
        for _ in range(rng.randint(1, 3)):  # a chain of 1-3 BUFs
            net = insert_buffer(circuit, net, f"chain{index}_{net}")
    for out in list(circuit.outputs[:2]):  # the output moves onto a BUF
        insert_buffer(circuit, out, f"obuf_{out}")
    # A second output BUF on an input and one on an output's own net.
    circuit.add("ibuf", GateType.BUF, (circuit.inputs[0],))
    circuit.add_output("ibuf")
    circuit.add("dbuf", GateType.BUF, (circuit.outputs[-2],))
    circuit.add_output("dbuf")
    gates = [n for n in circuit.gates if not circuit.gates[n].is_input]
    protected = set(rng.sample(gates, rng.randint(0, 8)))
    return circuit, protected


@pytest.mark.parametrize("seed", range(30))
def test_collapse_wire_gates_matches_per_removal_rebuild(seed):
    circuit, protected = _buffered_circuit(seed)
    reference = circuit.copy()
    assert sum(g.gate_type is GateType.BUF for g in circuit.gates.values()) > 12
    removed = _collapse_wire_gates(circuit, protected)
    assert removed == reference_collapse_wire_gates(reference, protected)
    assert removed > 0
    assert list(circuit.gates.items()) == list(reference.gates.items())
    assert circuit.outputs == reference.outputs


@pytest.mark.parametrize("seed", range(10))
def test_remove_buffer_keeps_the_fanout_map_fresh(seed):
    circuit, _ = _buffered_circuit(seed)
    fanout = {net: set(readers) for net, readers in circuit.fanout_map().items()}
    buffers = [n for n, g in circuit.gates.items() if g.gate_type is GateType.BUF]
    for buf in random.Random(seed).sample(buffers, len(buffers)):
        source = circuit.gates[buf].fanin[0]
        if buf in circuit.outputs and source in circuit.outputs:
            continue  # would alias two outputs
        _remove_buffer(circuit, fanout, buf, source)
        fresh = circuit.fanout_map()
        assert fanout == {net: set(readers) for net, readers in fresh.items()}
