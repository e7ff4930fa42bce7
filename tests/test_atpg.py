"""ATPG tests: faults, collapsing, fault simulation, PODEM, failing sets."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg import (
    Cube,
    FailingSetTooLarge,
    PodemEngine,
    StuckAtFault,
    all_faults,
    collapse_faults,
    cover_care_bits,
    cover_minterms,
    enumerate_failing_patterns,
    exact_cover,
    fault_coverage,
    internal_faults,
    verify_cover_exactness,
)
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType
from repro.sim.bitparallel import exhaustive_words, random_words
from tests.bigint_sim import FaultSimulator, failing_output_words
from tests.conftest import build_random_circuit
from tests.event_sim import evaluate_outputs


def test_fault_universe_size(c17_circuit):
    faults = all_faults(c17_circuit)
    assert len(faults) == 2 * 11  # 5 inputs + 6 gates


def test_fault_validation():
    with pytest.raises(ValueError):
        StuckAtFault("x", 2)


def test_collapsing_reduces(c17_circuit):
    full = all_faults(c17_circuit)
    collapsed = collapse_faults(c17_circuit)
    assert len(collapsed) < len(full)
    assert set(collapsed) <= set(full)


def test_internal_faults_exclude_interface(c17_circuit):
    faults = internal_faults(c17_circuit)
    nets = {f.net for f in faults}
    assert not nets & set(c17_circuit.inputs)
    assert not nets & set(c17_circuit.outputs)


def test_fault_simulator_agrees_with_event_sim(c17_circuit):
    rng = random.Random(0)
    words = random_words(c17_circuit.inputs, 64, rng)
    simulator = FaultSimulator(c17_circuit, words, 64)
    for fault in internal_faults(c17_circuit):
        word = simulator.detection_word(fault)
        # verify one detected lane and one undetected lane against the
        # event-driven oracle
        for lane in range(64):
            expected_bit = (word >> lane) & 1
            assignment = {
                n: (words[n] >> lane) & 1 for n in c17_circuit.inputs
            }
            good = evaluate_outputs(c17_circuit, assignment)
            bad = evaluate_outputs(
                c17_circuit, assignment, overrides={fault.net: fault.value}
            )
            assert expected_bit == (1 if good != bad else 0)
            if lane > 8:
                break  # a prefix is enough per fault; keeps test fast


def test_fault_coverage_counts(c17_circuit):
    words, lanes = exhaustive_words(c17_circuit.inputs)
    ratio, undetected = fault_coverage(
        c17_circuit, internal_faults(c17_circuit), words, lanes
    )
    assert ratio == 1.0  # c17 is fully testable
    assert not undetected


def test_failing_output_words(c17_circuit):
    words, lanes = exhaustive_words(c17_circuit.inputs)
    diff = failing_output_words(
        c17_circuit, StuckAtFault("N10", 0), words, lanes
    )
    assert diff["N22"] != 0
    assert diff["N23"] == 0  # N10 does not reach N23


def test_podem_detects_all_c17_faults(c17_circuit):
    engine = PodemEngine(c17_circuit)
    for fault in all_faults(c17_circuit):
        result = engine.generate(fault)
        assert result.detected, f"{fault} should be testable"
        assignment = {n: result.test_cube.get(n, 0) for n in c17_circuit.inputs}
        good = evaluate_outputs(c17_circuit, assignment)
        bad = evaluate_outputs(
            c17_circuit, assignment, overrides={fault.net: fault.value}
        )
        assert good != bad


def test_podem_finds_redundancy():
    circuit = Circuit("red")
    circuit.add_input("a")
    circuit.add_input("b")
    circuit.add("t", GateType.AND, ("a", "b"))
    circuit.add("z", GateType.OR, ("a", "t"))  # t s-a-0 is redundant
    circuit.add_output("z")
    engine = PodemEngine(circuit)
    assert engine.generate(StuckAtFault("t", 0)).status == "redundant"
    assert engine.generate(StuckAtFault("t", 1)).detected


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 100))
def test_podem_cubes_detect_for_any_x_fill(seed):
    """Property: a PODEM test cube detects under every X fill."""
    circuit = build_random_circuit(seed, num_inputs=6, num_gates=30)
    engine = PodemEngine(circuit, backtrack_limit=500)
    rng = random.Random(seed)
    faults = internal_faults(circuit)
    if not faults:
        return
    fault = rng.choice(faults)
    result = engine.generate(fault)
    if not result.detected:
        return
    for fill in (0, 1):
        assignment = {
            n: result.test_cube.get(n, fill) for n in circuit.inputs
        }
        good = evaluate_outputs(circuit, assignment)
        bad = evaluate_outputs(
            circuit, assignment, overrides={fault.net: fault.value}
        )
        assert good != bad


def test_cube_basics():
    cube = Cube(0b101, 0b100)
    assert cube.contains(0b110)
    assert cube.contains(0b100)
    assert not cube.contains(0b001)
    assert cube.care_count() == 2
    assert cube.num_minterms(3) == 2
    assert cube.to_pattern_string(3) == "1 x 0"


def test_cube_rejects_bits_outside_mask():
    with pytest.raises(ValueError):
        Cube(0b001, 0b010)


@settings(max_examples=30, deadline=None)
@given(
    st.sets(st.integers(0, 63), max_size=32),
)
def test_exact_cover_is_exact(minterms):
    """Property: exact_cover reproduces precisely the given minterm set."""
    cover = exact_cover(minterms, 6)
    assert cover_minterms(cover, 6) == minterms


def test_exact_cover_compresses():
    # full 2-cube: {0,1,2,3} over 2 vars -> single empty-mask cube
    cover = exact_cover({0, 1, 2, 3}, 2)
    assert len(cover) == 1
    assert cover[0].care_count() == 0
    assert cover_care_bits(cover) == 0


def test_exact_cover_respects_limit():
    with pytest.raises(ValueError):
        exact_cover(set(range(100)), 7, max_minterms=50)


def test_enumerate_failing_patterns_c17(c17_circuit):
    module = c17_circuit.extract_cone(["N22", "N23"], name="m")
    patterns = enumerate_failing_patterns(module, StuckAtFault("N10", 0))
    assert patterns.affected_outputs == ["N22"]
    assert verify_cover_exactness(patterns)
    assert patterns.key_bits() == cover_care_bits(patterns.unique_cubes())
    assert not patterns.is_redundant


def test_enumerate_rejects_wide_modules():
    circuit = build_random_circuit(3, num_inputs=10, num_gates=40)
    module = circuit.extract_cone(list(circuit.outputs))
    with pytest.raises(ValueError):
        enumerate_failing_patterns(
            module,
            StuckAtFault(next(iter(circuit.outputs)), 0),
            max_inputs=4,
        )


def test_enumerate_flags_large_failing_sets(c17_circuit):
    module = c17_circuit.extract_cone(["N22", "N23"], name="m")
    with pytest.raises(FailingSetTooLarge):
        enumerate_failing_patterns(
            module, StuckAtFault("N16", 1), max_minterms=1
        )


def test_confirm_test_cubes_batched(c17_circuit):
    """One batched array sweep confirms every PODEM cube for every fill."""
    from repro.atpg import confirm_test_cubes

    engine = PodemEngine(c17_circuit)
    results = [engine.generate(f) for f in collapse_faults(c17_circuit)]
    confirm_test_cubes(c17_circuit, results)
    for result in results:
        if result.detected:
            assert result.confirmed is True
        else:
            assert result.confirmed is None
    # A corrupted cube (complemented assignments) must not confirm.
    victim = next(r for r in results if r.detected)
    victim.test_cube = {net: 1 - v for net, v in victim.test_cube.items()}
    confirm_test_cubes(c17_circuit, [victim])
    assert victim.confirmed is False


def test_confirm_test_cubes_random_circuits():
    from repro.atpg import confirm_test_cubes

    for seed in range(6):
        circuit = build_random_circuit(seed, num_inputs=6, num_gates=30)
        engine = PodemEngine(circuit, backtrack_limit=500)
        results = [engine.generate(f) for f in collapse_faults(circuit)[:24]]
        confirm_test_cubes(circuit, results)
        assert all(r.confirmed for r in results if r.detected)


def test_confirm_test_cubes_empty_is_noop():
    from repro.atpg import confirm_test_cubes

    assert confirm_test_cubes(Circuit("empty"), []) == []
