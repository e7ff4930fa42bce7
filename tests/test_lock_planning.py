"""Lock-planning kernels against the per-fault reference code they replaced.

The planner's sink lookup, constant cascade, cut growth, module
extraction, failing-set enumeration and cube cover run on cached
circuit views, one bitset pass, in place on the parent circuit and on
big-int lane sets.  The reference versions below are the
straightforward whole-cone walks, standalone module circuits and
set-based covers; each fast kernel must return exactly what its
reference returns (same order, same floats), and a planner patched with
every reference must lock byte for byte as the real one does.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import pickle
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.cubes import Cube, exact_cover, expand_cube
from repro.atpg.faults import StuckAtFault, all_faults, internal_faults
from repro.atpg.patterns import (
    FailingPatterns,
    FailingSetTooLarge,
    enumerate_failing_patterns,
)
from repro.benchgen import load_itc99
from repro.locking.atpg_lock import AtpgLockConfig, atpg_lock
from repro.locking.cost_model import _fold_value, cascade_removed_area
from repro.locking.partition import affected_sinks, extract_sink_modules, grow_cut
from repro.netlist.cell_library import NANGATE45
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType
from repro.sim.bitparallel import exhaustive_words, mask_for, simulate_words
from repro.sim.compiled import compile_circuit, lanes_to_int


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

    return math.fsum(
        [gate_area(net)]
        + [gate_area(n) for n in cone if n != net]
        + [gate_area(n) for n in constant if n != net and n not in cone]
    )


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


def reference_exact_cover_sets(minterms, num_vars, max_minterms=4096):
    """Prime expansion and greedy cover by scanning the on-set as a set."""

    def inside(cube, on_set):
        size = cube.num_minterms(num_vars)
        if size > len(on_set):
            return False
        return sum(1 for m in on_set if m & cube.mask == cube.values) == size

    if not minterms:
        return []
    if max_minterms is not None and len(minterms) > max_minterms:
        raise ValueError("on-set exceeds the limit")
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
            gain = sum(1 for m in uncovered if m & cube.mask == cube.values)
            if gain > best_gain:
                best, best_gain = cube, gain
        cover.append(best)
        uncovered = {m for m in uncovered if m & best.mask != best.values}
    return cover


def reference_grow_cut(circuit, sinks, must_contain, max_support, tainted=None):
    """Cut growth listing the tainted and the logic frontier nets per step."""
    levels = circuit.levels()
    logic = circuit.logic_nets()
    if tainted is None:
        tainted = circuit.transitive_fanout([must_contain])
    interior = set(sinks)
    frontier = set()
    for sink in sinks:
        frontier.update(circuit.gates[sink].fanin)
    frontier -= interior
    guard = 0
    while True:
        guard += 1
        if guard > 4 * len(circuit.gates) + 64:
            return None
        forced = [n for n in frontier if n in tainted]
        if forced:
            target = forced[0]
        elif len(frontier) <= max_support and must_contain in interior:
            return sorted(frontier)
        else:
            candidates = [n for n in frontier if n in logic]
            if not candidates:
                return None
            target = max(candidates, key=lambda n: (levels[n], n))
        if target not in logic:
            return None
        frontier.discard(target)
        interior.add(target)
        for net in circuit.gates[target].fanin:
            if net not in interior:
                frontier.add(net)
        if len(frontier) > 3 * max_support:
            return None


def reference_extract_between(circuit, cut, sinks):
    """Standalone circuit of the logic between *cut* and *sinks*."""
    logic = circuit.logic_nets()
    module = Circuit("fault_module")
    for net in cut:
        module.add(net, GateType.INPUT)
    needed = []
    seen = set(cut)
    stack = list(sinks)
    while stack:
        net = stack.pop()
        if net in seen:
            continue
        seen.add(net)
        if net not in logic:
            return None
        needed.append(net)
        stack.extend(n for n in circuit.gates[net].fanin if n not in seen)
    needed.sort(key=circuit.topological_index().__getitem__)
    for net in needed:
        module.add_gate(circuit.gates[net])
    for sink in sinks:
        module.add_output(sink)
    return module


@dataclass
class ReferenceModule:
    """A fault module carried as its own standalone circuit."""

    module: Circuit  # INPUTs = cut nets, outputs = sinks
    cut_nets: list
    sink_nets: list
    sink_aliases: dict

    @property
    def gates(self):
        return list(self.module.gates)[len(self.cut_nets) :]


def reference_extract_sink_modules(circuit, fault_net, max_support, max_sinks=24):
    sinks, aliases = affected_sinks(circuit, fault_net)
    if not sinks or len(sinks) > max_sinks:
        return None
    tainted = circuit.transitive_fanout([fault_net])
    modules = []
    for sink in sinks:
        cut = reference_grow_cut(
            circuit, [sink], fault_net, max_support, tainted=tainted
        )
        if cut is None or fault_net in cut:
            return None
        module = reference_extract_between(circuit, cut, [sink])
        if module is None or fault_net not in module.gates:
            return None
        modules.append(ReferenceModule(module, cut, [sink], {sink: aliases[sink]}))
    return modules


def reference_enumerate(circuit, fault, module=None, max_inputs=16, max_minterms=256):
    """Exhaustive simulation of a standalone module circuit, good and
    stuck machine as two columns of one compiled sweep."""
    module = circuit if module is None else module.module
    variables = list(module.inputs)
    if len(variables) > max_inputs:
        raise ValueError("module too wide")
    words, num_patterns = exhaustive_words(variables)
    stuck_word = mask_for(num_patterns) if fault.value else 0
    engine = compile_circuit(module)
    # good and stuck machine as two override columns of one sweep
    rows = engine.simulate_batch_array(
        words, num_patterns, [None, {fault.net: stuck_word}]
    )
    good, faulty = (
        {net: lanes_to_int(rows[i, column]) for i, net in enumerate(engine.nets)}
        for column in (0, 1)
    )
    minterms_by_output = {}
    for output in module.outputs:
        diff = good[output] ^ faulty[output]
        if diff.bit_count() > max_minterms:
            raise FailingSetTooLarge(f"{fault}: output {output}")
        minterms_by_output[output] = {
            m for m in range(num_patterns) if diff >> m & 1
        }
    result = FailingPatterns(fault, variables, minterms_by_output)
    for output, terms in minterms_by_output.items():
        result.covers_by_output[output] = reference_exact_cover_sets(
            terms, len(variables), max_minterms=max_minterms
        )
    return result


def reference_screen_words(work, rng, lanes):
    """The reachability screen's words from the compiled simulator."""
    words = {net: rng.getrandbits(lanes) for net in work.inputs}
    return simulate_words(work, words, lanes)


def patch_planner_references(monkeypatch):
    """Run ``atpg_lock``'s planner on every reference kernel."""
    # ``repro.locking.atpg_lock`` as an attribute is the function.
    module = importlib.import_module("repro.locking.atpg_lock")
    for name, reference in (
        ("extract_sink_modules", reference_extract_sink_modules),
        ("enumerate_failing_patterns", reference_enumerate),
        ("cascade_removed_area", reference_cascade_removed_area),
        ("_screen_words", reference_screen_words),
    ):
        monkeypatch.setattr(module, name, reference)


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


def smoke_lock_inputs():
    """The attack and defense-matrix smoke grids' unique lock inputs."""
    from repro.runner.profiles import attack_smoke_campaign, defense_smoke_campaign

    return _lock_inputs(
        [c.cell for spec in (attack_smoke_campaign(), defense_smoke_campaign())
         for c in spec.cells()]
    )


def _lock_inputs(cells):
    from repro.runner.stages import load_cell_circuit, lock_payload

    inputs = {}
    for cell in cells:
        key = repr(lock_payload(cell))
        if key not in inputs:
            core = load_cell_circuit(cell).combinational_core()
            inputs[key] = (core, cell.lock_config())
    return list(inputs.values())


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


@settings(max_examples=150, deadline=None)
@given(on_sets())
def test_exact_cover_matches_set_scan(case):
    width, minterms = case
    assert exact_cover(minterms, width, max_minterms=48) == (
        reference_exact_cover_sets(minterms, width, max_minterms=48)
    )


def _outcome(function, *args, **kwargs):
    """A call's result, or the class of the exception it raised."""
    try:
        return function(*args, **kwargs)
    except (FailingSetTooLarge, ValueError) as error:
        return type(error)


def differential_circuits(c17_circuit, sequential_circuit, mid_random_circuit):
    smoke = [core for core, _ in smoke_lock_inputs()]
    return [c17_circuit, sequential_circuit, mid_random_circuit, *smoke]


def test_modules_and_failing_sets_match_standalone_circuits(
    c17_circuit, sequential_circuit, mid_random_circuit
):
    """Every fault the planner can examine (the whole internal-fault
    universe, default budgets): the same cut, sink, aliases and gates as
    the standalone module circuit, and the same failing patterns or the
    same exception."""
    config = AtpgLockConfig()
    circuits = differential_circuits(
        c17_circuit, sequential_circuit, mid_random_circuit
    )
    assert [c.name for c in circuits[3:]] == ["b14_comb", "random:i14-o8-g200_comb"]
    enclosed = 0
    for circuit in circuits:
        nets = sorted({fault.net for fault in internal_faults(circuit)})
        for net in nets:
            got = extract_sink_modules(
                circuit, net, config.max_support, config.max_sinks
            )
            want = reference_extract_sink_modules(
                circuit, net, config.max_support, config.max_sinks
            )
            assert (got is None) == (want is None), (circuit.name, net)
            if got is None:
                continue
            enclosed += 1
            for module, reference in zip(got, want, strict=True):
                assert (
                    module.cut_nets,
                    module.sink_nets,
                    module.sink_aliases,
                    module.gates,
                ) == (
                    reference.cut_nets,
                    reference.sink_nets,
                    reference.sink_aliases,
                    reference.gates,
                ), (circuit.name, net)
                for value in (0, 1):
                    fault = StuckAtFault(net, value)
                    limits = dict(
                        max_inputs=config.max_support,
                        max_minterms=config.max_minterms,
                    )
                    assert _outcome(
                        enumerate_failing_patterns, circuit, fault, module, **limits
                    ) == _outcome(
                        reference_enumerate, circuit, fault, reference, **limits
                    ), (circuit.name, fault)
    assert enclosed > 100


def test_whole_circuit_failing_sets_match_standalone_sweep(
    c17_circuit, mid_random_circuit
):
    """``module=None``: the combinational circuit itself is the module,
    faults on its inputs included."""
    small = load_itc99("b14", scale=0.01).combinational_core()
    for circuit in (c17_circuit, small):
        for fault in all_faults(circuit):
            assert _outcome(
                enumerate_failing_patterns, circuit, fault, max_minterms=4096
            ) == _outcome(reference_enumerate, circuit, fault, max_minterms=4096)
    fault = internal_faults(mid_random_circuit)[0]
    assert _outcome(
        enumerate_failing_patterns, mid_random_circuit, fault, max_inputs=8
    ) is ValueError


def test_grow_cut_matches_frontier_lists(c17_circuit, mid_random_circuit):
    """Cuts around every net toward its first sink, also with the tainted
    cone computed inside; the tightest budget forces blow-ups."""
    for circuit in (c17_circuit, mid_random_circuit):
        for net in sorted(circuit.logic_nets()):
            sinks, _ = affected_sinks(circuit, net)
            for support in (1, 4, 12):
                got = grow_cut(circuit, sinks[:1], net, support)
                want = reference_grow_cut(circuit, sinks[:1], net, support)
                assert got == want, (circuit.name, net, support)


def lock_bytes(circuit, config):
    return hashlib.sha256(
        pickle.dumps(atpg_lock(circuit, config), protocol=4)
    ).hexdigest()


def training_lock_inputs():
    """The learned attack's three training locks (``training_set``)."""
    from repro.adversary.learned import default_train_config
    from repro.benchgen import GeneratorConfig, generate_random_circuit

    config = default_train_config()
    inputs = []
    for index, (num_in, num_out, num_gates) in enumerate(config.profiles):
        circuit = generate_random_circuit(
            GeneratorConfig(
                num_inputs=num_in, num_outputs=num_out, num_gates=num_gates
            ),
            seed=config.seed + index,
            name=f"adv_train_{index}",
        )
        lock = AtpgLockConfig(
            key_bits=config.key_bits,
            seed=config.seed + index,
            run_lec=False,
            max_candidates=60,
        )
        inputs.append((circuit, lock))
    return inputs


def table12_lock_inputs(names=("b14", "b15")):
    from repro.runner.profiles import current_profile

    cells = current_profile().table_campaign().cells()
    return _lock_inputs([cell for cell in cells if cell.benchmark in names])


@pytest.mark.slow
def test_locks_are_byte_identical_to_the_reference_planner(monkeypatch):
    """The five seed-0 attack-grid-cold locks (two smoke designs, three
    training locks) and the b14/b15 Tables I/II locks."""
    inputs = smoke_lock_inputs() + training_lock_inputs() + table12_lock_inputs()
    assert len(inputs) == 7
    got = [lock_bytes(circuit, config) for circuit, config in inputs]
    with monkeypatch.context() as patch:
        patch_planner_references(patch)
        want = [lock_bytes(circuit, config) for circuit, config in inputs]
    assert got == want


def test_planning_builds_no_circuit_and_runs_no_simulator(monkeypatch):
    """Candidates are evaluated in place: no module ``Circuit``, no
    compiled program and no ``simulate_words`` sweep."""
    import random

    import repro.sim.bitparallel as bitparallel
    import repro.sim.compiled as compiled

    planner = importlib.import_module("repro.locking.atpg_lock")
    circuit, config = smoke_lock_inputs()[0]
    circuit.topological_order()
    calls = []

    def forbidden(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError(name)

        return record

    init = Circuit.__init__

    def counted_init(self, *args, **kwargs):
        calls.append("Circuit")
        init(self, *args, **kwargs)

    monkeypatch.setattr(compiled, "compile_circuit", forbidden("compile_circuit"))
    monkeypatch.setattr(bitparallel, "compile_circuit", forbidden("compile_circuit"))
    monkeypatch.setattr(bitparallel, "simulate_words", forbidden("simulate_words"))
    monkeypatch.setattr(Circuit, "__init__", counted_init)
    report = planner.AtpgLockReport()
    plans = planner._plan_faults(
        circuit, config, NANGATE45, random.Random(1), report
    )
    assert plans and report.candidates_examined == 100
    assert calls == []
