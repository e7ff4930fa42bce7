"""Lock-planning kernels against the per-fault reference code they replaced.

The planner's sink lookup, constant cascade and cube cover run on cached
circuit views, one bitset pass and on-set membership tests.  The
reference versions below are the straightforward whole-cone walks and
cube expansions; each fast kernel must return exactly what its
reference returns (same order, same floats).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.cubes import Cube, exact_cover, expand_cube
from repro.atpg.faults import internal_faults
from repro.benchgen import load_itc99
from repro.locking.cost_model import _fold_value, cascade_removed_area
from repro.locking.partition import affected_sinks
from repro.netlist.cell_library import NANGATE45
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType
from repro.sim.bitparallel import exhaustive_words


# ----------------------------------------------------------------------
# Reference implementations
# ----------------------------------------------------------------------
def reference_affected_sinks(circuit, net):
    """One transitive-fanout walk plus a scan of every DFF, per net."""
    reach = circuit.transitive_fanout([net])
    aliases = {}
    for out in circuit.outputs:
        if out in reach:
            aliases.setdefault(out, []).append(f"PO:{out}")
    for dff_name in circuit.dffs:
        d_net = circuit.gates[dff_name].fanin[0]
        if d_net in reach:
            aliases.setdefault(d_net, []).append(f"DFF:{dff_name}")
    return list(aliases), aliases


def reference_cascade_removed_area(circuit, net, value, lib=NANGATE45):
    """MFFC plus a fold over the whole fanout cone in topological order."""
    fanout = circuit.fanout_map()
    outputs = set(circuit.outputs)

    def gate_area(name):
        gate = circuit.gates[name]
        return lib.gate_area(gate.gate_type, len(gate.fanin))

    cone = {net}
    stack = list(circuit.gates[net].fanin)
    while stack:
        candidate = stack.pop()
        if candidate in cone:
            continue
        gate = circuit.gates[candidate]
        if gate.is_input or gate.is_dff or gate.is_tie or candidate in outputs:
            continue
        readers = fanout[candidate]
        if readers and all(r in cone for r in readers):
            cone.add(candidate)
            stack.extend(gate.fanin)

    constant = {net: value}
    order = {n: i for i, n in enumerate(circuit.topological_order())}
    for name in sorted(circuit.transitive_fanout([net]), key=order.__getitem__):
        if name == net or name in constant:
            continue
        gate = circuit.gates[name]
        if gate.is_dff or gate.is_input or gate.is_tie:
            continue
        folded = _fold_value(gate.gate_type, [constant.get(n) for n in gate.fanin])
        if folded is not None:
            constant[name] = folded

    area = gate_area(net)
    area += sum(gate_area(n) for n in cone if n != net)
    area += sum(gate_area(n) for n in constant if n != net and n not in cone)
    return area


def reference_exact_cover(minterms, num_vars):
    """Prime expansion and greedy cover by expanding every cube."""

    def inside(cube, on_set):
        if cube.num_minterms(num_vars) > len(on_set):
            return False
        return all(m in on_set for m in expand_cube(cube, num_vars))

    if not minterms:
        return []
    on_set = set(minterms)
    full_mask = (1 << num_vars) - 1
    primes = set()
    for minterm in on_set:
        mask, values = full_mask, minterm
        for index in range(num_vars):
            candidate_mask = mask & ~(1 << index)
            if inside(Cube(candidate_mask, values & candidate_mask), on_set):
                mask = candidate_mask
                values &= candidate_mask
        primes.add(Cube(mask, values))
    uncovered = set(on_set)
    cover = []
    prime_list = sorted(primes, key=lambda c: (c.care_count(), c.mask, c.values))
    while uncovered:
        best, best_gain = None, -1
        for cube in prime_list:
            gain = sum(1 for m in expand_cube(cube, num_vars) if m in uncovered)
            if gain > best_gain:
                best, best_gain = cube, gain
        cover.append(best)
        uncovered.difference_update(expand_cube(best, num_vars))
    return cover


# ----------------------------------------------------------------------
# Circuits
# ----------------------------------------------------------------------
def dff_chain_circuit() -> Circuit:
    """A DFF feeding a DFF, a DFF D net that is also a PO, and a DFF Q
    net listed as a PO."""
    circuit = Circuit("dffchain")
    for name in ("a", "b", "c"):
        circuit.add_input(name)
    circuit.add("q1", GateType.DFF, ("d1",))
    circuit.add("q2", GateType.DFF, ("q1",))  # DFF -> DFF
    circuit.add("q3", GateType.DFF, ("d1",))  # shares q1's D net
    circuit.add("d1", GateType.AND, ("a", "q2"))
    circuit.add("n1", GateType.OR, ("d1", "b"))
    circuit.add("n2", GateType.XOR, ("n1", "q3"))
    circuit.add("n3", GateType.NAND, ("c", "q1"))
    circuit.add("q4", GateType.DFF, ("n3",))
    circuit.add("n4", GateType.NOR, ("n2", "q4"))
    for net in ("d1", "n4", "q2", "n3"):
        circuit.add_output(net)
    return circuit


def planning_circuits(c17_circuit, sequential_circuit, mid_random_circuit):
    return [
        c17_circuit,
        sequential_circuit,
        mid_random_circuit,
        load_itc99("b14", scale=0.02),  # raw sequential, not the core
        dff_chain_circuit(),
    ]


# ----------------------------------------------------------------------
# Differential tests
# ----------------------------------------------------------------------
def test_affected_sinks_matches_per_net_walk(
    c17_circuit, sequential_circuit, mid_random_circuit
):
    for circuit in planning_circuits(
        c17_circuit, sequential_circuit, mid_random_circuit
    ):
        for net in circuit.gates:
            assert affected_sinks(circuit, net) == reference_affected_sinks(
                circuit, net
            ), (circuit.name, net)


def test_affected_sinks_keeps_dff_chain_aliases():
    circuit = dff_chain_circuit()
    sinks, aliases = affected_sinks(circuit, "a")
    # d1 is both a PO and the D net of q1 and q3.  The DFF reader q1
    # joins the cone untraversed, and it is q2's D net.
    assert sinks == ["d1", "n4", "q1"]
    assert aliases == {
        "d1": ["PO:d1", "DFF:q1", "DFF:q3"],
        "n4": ["PO:n4"],
        "q1": ["DFF:q2"],
    }
    # A fault on the Q net q1 reaches the DFF reader q2, a PO, and q2's
    # D net is q1 itself; PO entries come before DFF entries.
    sinks, aliases = affected_sinks(circuit, "q1")
    assert sinks == ["q2", "n3", "q1"]
    assert aliases == {
        "q2": ["PO:q2"],
        "n3": ["PO:n3", "DFF:q4"],
        "q1": ["DFF:q2"],
    }


def test_output_reach_counts_match_cone_walk(sequential_circuit):
    circuit = dff_chain_circuit()
    for case in (circuit, sequential_circuit):
        counts = case.output_reach_counts()
        for net in case.gates:
            reach = case.transitive_fanout([net])
            want = sum(1 for out in set(case.outputs) if out in reach)
            assert counts[net] == want, (case.name, net)


def test_cascade_removed_area_matches_full_cone_walk(
    c17_circuit, sequential_circuit, mid_random_circuit
):
    for circuit in planning_circuits(
        c17_circuit, sequential_circuit, mid_random_circuit
    ):
        nets = {fault.net for fault in internal_faults(circuit)}
        for net in sorted(nets):
            for value in (0, 1):
                got = cascade_removed_area(circuit, net, value)
                want = reference_cascade_removed_area(circuit, net, value)
                assert got == want, (circuit.name, net, value)


@st.composite
def on_sets(draw):
    """Up to 48 minterms over <= 12 variables: a few random cubes (so
    primes merge) plus scattered minterms."""
    width = draw(st.integers(1, 12))
    full = (1 << width) - 1
    minterms = set()
    for mask, values in draw(
        st.lists(st.tuples(st.integers(0, full), st.integers(0, full)), max_size=3)
    ):
        cube = Cube(mask, values & mask)
        if cube.num_minterms(width) <= 48:
            minterms.update(expand_cube(cube, width))
    minterms |= draw(st.sets(st.integers(0, full), max_size=min(12, full + 1)))
    return width, set(sorted(minterms)[:48])


@settings(max_examples=150, deadline=None)
@given(on_sets())
def test_exact_cover_matches_cube_expansion(case):
    width, minterms = case
    assert exact_cover(minterms, width, max_minterms=48) == (
        reference_exact_cover(minterms, width)
    )


def test_exhaustive_words_calls_share_no_state():
    first, lanes = exhaustive_words(["a", "b", "c"])
    second, _ = exhaustive_words(["x", "y", "z"])
    assert lanes == 8
    assert list(first.values()) == list(second.values())
    first["a"] = 0
    third, _ = exhaustive_words(["a", "b", "c"])
    assert third == {"a": 0b10101010, "b": 0b11001100, "c": 0b11110000}
    assert third is not first
