"""Tests for netlist transforms and the validator."""

import pickle

import pytest

from repro.netlist.circuit import Circuit, NetlistError
from repro.netlist.gate_types import GateType
from repro.netlist.transforms import (
    count_area,
    insert_buffer,
    insert_on_net,
    merge_circuits,
    relabel_instances,
    substitute_net,
    sweep_dead_logic,
)
from repro.netlist.validate import validate
from repro.sim.bitparallel import functions_equal_exhaustive
from tests.conftest import build_random_circuit, tiny_mux_circuit


def test_substitute_net_rewires_readers(c17_circuit):
    edits = substitute_net(c17_circuit, "N10", "N11")
    assert edits == 1
    assert "N10" not in c17_circuit.gates["N22"].fanin
    assert c17_circuit.gates["N22"].fanin.count("N11") == 1


def test_substitute_net_repoints_outputs(c17_circuit):
    substitute_net(c17_circuit, "N22", "N23")
    assert c17_circuit.outputs[0] == "N23"


def test_substitute_net_noop():
    circuit = tiny_mux_circuit()
    assert substitute_net(circuit, "z", "z") == 0


@pytest.mark.parametrize("seed", range(4))
def test_substitute_net_with_readers_equals_the_full_scan(seed):
    """Known readers (a superset) give the same edits, gates, gate order
    and outputs as the scan over every gate."""
    circuit = build_random_circuit(seed, num_inputs=6, num_gates=60)
    nets = list(circuit.gates)
    for old, new in zip(nets[::3], nets[1::3]):
        fanout = circuit.fanout_map()
        scanned = pickle.loads(pickle.dumps(circuit))
        readers = set(fanout[old]) | {nets[0], "no_such_gate"}
        edits = substitute_net(circuit, old, new, readers=readers)
        assert edits == substitute_net(scanned, old, new)
        assert list(circuit.gates.items()) == list(scanned.gates.items())
        assert circuit.outputs == scanned.outputs


def test_insert_buffer_preserves_function():
    circuit = tiny_mux_circuit()
    reference = tiny_mux_circuit()
    insert_buffer(circuit, "t0")
    assert functions_equal_exhaustive(
        circuit, reference
    )


def test_insert_on_net_key_gate_semantics():
    circuit = tiny_mux_circuit()
    circuit.add("key", GateType.TIELO)
    kg = insert_on_net(circuit, "t0", GateType.XOR, side_inputs=("key",))
    # with key = 0 the XOR is transparent: function preserved
    assert functions_equal_exhaustive(circuit, tiny_mux_circuit())
    assert kg in circuit.gates["z"].fanin


def test_sweep_dead_logic_removes_unobservable():
    circuit = tiny_mux_circuit()
    circuit.add("dead1", GateType.NOT, ("a",))
    circuit.add("dead2", GateType.AND, ("dead1", "b"))
    removed = sweep_dead_logic(circuit)
    assert removed == 2
    assert "dead1" not in circuit.gates


def test_sweep_keeps_protected():
    circuit = tiny_mux_circuit()
    circuit.add("keepme", GateType.NOT, ("a",))
    removed = sweep_dead_logic(circuit, keep=["keepme"])
    assert removed == 0
    assert "keepme" in circuit.gates


def test_sweep_keeps_dff_cones():
    circuit = tiny_mux_circuit()
    circuit.add("q", GateType.DFF, ("z",))
    removed = sweep_dead_logic(circuit)
    assert removed == 0


def test_merge_circuits():
    base = tiny_mux_circuit()
    addition = Circuit("add")
    addition.add_input("z")  # connects to base's net z
    addition.add("inv", GateType.NOT, ("z",))
    addition.add_output("inv")
    rename = merge_circuits(base, addition, prefix="m_")
    assert rename["inv"].startswith("m_")
    assert rename["z"] == "z"
    assert base.gates[rename["inv"]].fanin == ("z",)


def test_merge_rejects_unknown_inputs():
    base = tiny_mux_circuit()
    addition = Circuit("add")
    addition.add_input("ghost")
    addition.add("x", GateType.NOT, ("ghost",))
    addition.add_output("x")
    with pytest.raises(NetlistError):
        merge_circuits(base, addition, prefix="m_")


def test_relabel_instances_preserves_function(c17_circuit):
    relabeled = relabel_instances(c17_circuit)
    assert functions_equal_exhaustive(c17_circuit, relabeled)
    internal = [
        g.name
        for g in relabeled.gates.values()
        if not g.is_input and g.name not in relabeled.outputs
    ]
    assert all(name.startswith("n") for name in internal)


def test_count_area_positive(c17_circuit):
    assert count_area(c17_circuit) > 0.0


def test_validate_clean(c17_circuit):
    report = validate(c17_circuit)
    assert report.ok
    assert not report.warnings


def test_validate_undriven_net():
    circuit = Circuit("bad")
    circuit.add_input("a")
    circuit.add("z", GateType.AND, ("a", "ghost"))
    circuit.add_output("z")
    report = validate(circuit)
    assert not report.ok
    assert any("ghost" in e for e in report.errors)
    with pytest.raises(NetlistError):
        report.raise_on_error()


def test_validate_undriven_output():
    circuit = Circuit("bad")
    circuit.add_input("a")
    circuit.outputs.append("nope")
    report = validate(circuit)
    assert any("nope" in e for e in report.errors)


def test_validate_warns_on_floating_net():
    circuit = tiny_mux_circuit()
    circuit.add("float", GateType.NOT, ("a",))
    report = validate(circuit)
    assert report.ok
    assert any("float" in w for w in report.warnings)
    quiet = validate(circuit, allow_dangling=True)
    assert not quiet.warnings


def test_validate_warns_on_degenerate_gate():
    circuit = Circuit("w")
    circuit.add_input("a")
    circuit.add("z", GateType.AND, ("a",))
    circuit.add_output("z")
    report = validate(circuit)
    assert any("single-input" in w for w in report.warnings)


def test_validate_warns_on_duplicate_fanin():
    circuit = Circuit("w")
    circuit.add_input("a")
    circuit.add("z", GateType.AND, ("a", "a"))
    circuit.add_output("z")
    report = validate(circuit)
    assert any("duplicated" in w for w in report.warnings)
