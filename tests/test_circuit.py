"""Unit tests for the Circuit data structure."""

import pytest

from repro.locking.partition import affected_sinks
from repro.netlist.circuit import Circuit, Gate, NetlistError
from repro.netlist.gate_types import GateType
from repro.netlist.transforms import substitute_net
from tests.conftest import tiny_mux_circuit


def test_add_and_lookup():
    circuit = Circuit("t")
    circuit.add_input("a")
    circuit.add("z", GateType.NOT, ("a",))
    circuit.add_output("z")
    assert len(circuit) == 2
    assert "z" in circuit
    assert circuit.gate("z").gate_type is GateType.NOT
    assert circuit.inputs == ["a"]
    assert circuit.outputs == ["z"]


def test_duplicate_driver_rejected():
    circuit = Circuit("t")
    circuit.add_input("a")
    with pytest.raises(NetlistError):
        circuit.add_input("a")


def test_duplicate_output_rejected():
    circuit = tiny_mux_circuit()
    with pytest.raises(NetlistError):
        circuit.add_output("z")


def test_missing_driver_raises_on_fanout_map():
    circuit = Circuit("t")
    circuit.add_input("a")
    circuit.add("z", GateType.AND, ("a", "ghost"))
    with pytest.raises(NetlistError):
        circuit.fanout_map()


def test_topological_order_respects_dependencies(c17_circuit):
    order = c17_circuit.topological_order()
    position = {net: i for i, net in enumerate(order)}
    for gate in c17_circuit:
        for fin in gate.fanin:
            assert position[fin] < position[gate.name]


def test_combinational_cycle_detected():
    circuit = Circuit("loop")
    circuit.add_input("a")
    circuit.add("x", GateType.AND, ("a", "y"))
    circuit.add("y", GateType.OR, ("x", "a"))
    circuit.add_output("y")
    with pytest.raises(NetlistError):
        circuit.topological_order()


def test_dff_feedback_is_not_a_cycle():
    circuit = Circuit("seq")
    circuit.add_input("a")
    circuit.add("q", GateType.DFF, ("d",))
    circuit.add("d", GateType.XOR, ("a", "q"))
    circuit.add_output("d")
    order = circuit.topological_order()
    assert set(order) == {"a", "q", "d"}
    assert circuit.is_sequential


def test_depth_and_levels(c17_circuit):
    levels = c17_circuit.levels()
    assert levels["N1"] == 0
    assert levels["N10"] == 1
    assert levels["N22"] == 3
    assert c17_circuit.depth() == 3


def test_levels_cache_invalidation(c17_circuit):
    first = c17_circuit.levels()
    c17_circuit.add("extra", GateType.NOT, ("N22",))
    second = c17_circuit.levels()
    assert "extra" in second and "extra" not in first


def test_transitive_fanin_and_fanout(c17_circuit):
    cone = c17_circuit.transitive_fanin(["N22"])
    assert cone == {"N22", "N10", "N16", "N1", "N3", "N2", "N11", "N6"}
    reach = c17_circuit.transitive_fanout(["N11"])
    assert reach == {"N11", "N16", "N19", "N22", "N23"}


def test_support(c17_circuit):
    assert set(c17_circuit.support(["N22"])) == {"N1", "N2", "N3", "N6"}


def test_extract_cone(c17_circuit):
    cone = c17_circuit.extract_cone(["N22"])
    assert set(cone.inputs) == {"N1", "N2", "N3", "N6"}
    assert cone.outputs == ["N22"]
    assert cone.num_logic_gates() == 4


def test_combinational_core_interface(sequential_circuit):
    core = sequential_circuit.combinational_core()
    assert not core.is_sequential
    dffs = sequential_circuit.dffs
    for q in dffs:
        assert core.gates[q].is_input
    # every DFF data net is observable in the core
    for q in dffs:
        d_net = sequential_circuit.gates[q].fanin[0]
        assert d_net in core.outputs


def test_copy_independence(c17_circuit):
    dup = c17_circuit.copy("dup")
    dup.add("n", GateType.NOT, ("N22",))
    assert "n" not in c17_circuit.gates
    assert dup.name == "dup"


def test_renamed(c17_circuit):
    renamed = c17_circuit.renamed(lambda n: f"x_{n}")
    assert "x_N22" in renamed.outputs
    assert renamed.gates["x_N10"].fanin == ("x_N1", "x_N3")


def test_fresh_name(c17_circuit):
    assert c17_circuit.fresh_name("brandnew") == "brandnew"
    taken = c17_circuit.fresh_name("N10")
    assert taken != "N10" and taken not in c17_circuit.gates


def test_stats(c17_circuit):
    stats = c17_circuit.stats()
    assert stats.num_inputs == 5
    assert stats.num_outputs == 2
    assert stats.num_gates == 6
    assert stats.type_histogram["nand"] == 6


def test_gate_helpers():
    gate = Gate("g", GateType.NAND, ("a", "b"))
    assert gate.with_type(GateType.AND).gate_type is GateType.AND
    assert gate.with_fanin(("x", "y")).fanin == ("x", "y")
    assert not gate.is_tie and not gate.is_dff and gate.is_combinational


def test_gate_arity_validation():
    with pytest.raises(NetlistError):
        Gate("g", GateType.NOT, ("a", "b"))
    with pytest.raises(NetlistError):
        Gate("g", GateType.TIEHI, ("a",))
    with pytest.raises(NetlistError):
        Gate("", GateType.AND, ("a", "b"))


def test_remove_and_replace(c17_circuit):
    gate = c17_circuit.gates["N22"]
    c17_circuit.replace_gate(gate.with_type(GateType.AND))
    assert c17_circuit.gates["N22"].gate_type is GateType.AND
    c17_circuit.remove_gate("N22")
    assert "N22" not in c17_circuit.gates
    with pytest.raises(NetlistError):
        c17_circuit.remove_gate("N22")


def _sink_views(circuit):
    return (
        [affected_sinks(circuit, net) for net in circuit.gates],
        circuit.output_reach_counts(),
        circuit.inputs,
        circuit.dffs,
    )


def test_output_edits_invalidate_cached_views(sequential_circuit):
    """Output-only edits must not serve stale sink tables."""
    edits = [
        lambda c: c.add_output(c.dffs[0]),
        lambda c: c.rename_output(c.outputs[0], c.dffs[1]),
        lambda c: substitute_net(c, c.outputs[1], c.dffs[2]),
    ]
    for edit in edits:
        circuit = sequential_circuit.copy()
        _sink_views(circuit)  # populate every cache
        edit(circuit)
        assert _sink_views(circuit) == _sink_views(circuit.copy())


def test_substitute_net_repoints_every_output_listing():
    circuit = tiny_mux_circuit()
    circuit.add_output("t0")
    circuit.add_output("t1")
    substitute_net(circuit, "t1", "t0")  # t0 is now listed twice
    circuit.output_reach_counts()
    assert substitute_net(circuit, "t0", "ns") == 3  # OR's fanin + two POs
    assert circuit.outputs == ["z", "ns", "ns"]
    counts = circuit.output_reach_counts()
    assert counts == circuit.copy().output_reach_counts()
    assert (counts["s"], counts["a"]) == (2, 0)  # distinct outputs only


def test_cached_role_lists_are_callers_own(c17_circuit):
    inputs = c17_circuit.inputs
    inputs.append("bogus")
    assert "bogus" not in c17_circuit.inputs
    c17_circuit.add_input("N99")
    assert c17_circuit.inputs[-1] == "N99"
    assert "N99" not in inputs
    order = c17_circuit.topological_order()
    assert c17_circuit.topological_index() == {n: i for i, n in enumerate(order)}
