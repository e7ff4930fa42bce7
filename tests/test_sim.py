"""Simulation engine tests: bit-parallel vs event-driven differential,
exhaustive enumeration, activity estimation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.gate_types import GateType
from repro.sim.bitparallel import (
    exhaustive_words,
    functions_equal_exhaustive,
    mask_for,
    output_words,
    random_words,
    simulate_words,
    toggle_activity,
)
from tests.conftest import build_random_circuit, tiny_mux_circuit
from tests.event_sim import evaluate_outputs, simulate_event_driven


def _output_rows(circuit, patterns):
    """Output values per row-per-pattern stimulus (lane *p* is row *p*)."""
    words = {
        net: sum(row[i] << lane for lane, row in enumerate(patterns))
        for i, net in enumerate(circuit.inputs)
    }
    outs = output_words(circuit, words, len(patterns))
    return [
        [(outs[net] >> lane) & 1 for net in circuit.outputs]
        for lane in range(len(patterns))
    ]


def test_c17_known_vectors(c17_circuit):
    rows = _output_rows(
        c17_circuit, [[0, 0, 0, 0, 0], [1, 1, 1, 1, 1], [1, 0, 1, 0, 1]]
    )
    assert rows == [[0, 0], [1, 0], [1, 1]]


def test_mux_behaviour():
    mux = tiny_mux_circuit()
    # order of inputs is a, b, s
    rows = _output_rows(mux, [[1, 0, 1], [1, 0, 0], [0, 1, 0], [0, 1, 1]])
    assert [r[0] for r in rows] == [1, 0, 1, 0]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2000), st.integers(0, 2**16 - 1))
def test_engines_agree(seed, stimulus):
    """Property: bit-parallel and event-driven engines always agree."""
    circuit = build_random_circuit(seed % 50, num_inputs=6, num_gates=30)
    assignment = {
        net: (stimulus >> i) & 1 for i, net in enumerate(circuit.inputs)
    }
    event = evaluate_outputs(circuit, assignment)
    words = {net: value for net, value in assignment.items()}
    parallel = output_words(circuit, words, 1)
    for net in circuit.outputs:
        assert parallel[net] & 1 == event[net]


def test_overrides_inject_faults(c17_circuit):
    words, lanes = exhaustive_words(c17_circuit.inputs)
    good = output_words(c17_circuit, words, lanes)
    stuck = output_words(
        c17_circuit, words, lanes, overrides={"N10": 0}
    )
    assert any(good[o] != stuck[o] for o in c17_circuit.outputs)


def test_exhaustive_words_enumerate_all():
    words, lanes = exhaustive_words(["a", "b", "c"])
    assert lanes == 8
    seen = set()
    for lane in range(8):
        bits = tuple((words[n] >> lane) & 1 for n in ["a", "b", "c"])
        seen.add(bits)
    assert len(seen) == 8


def test_mask_and_popcount_helpers():
    assert mask_for(5) == 0b11111
    assert mask_for(0) == 0


def test_random_words_deterministic():
    rng1, rng2 = random.Random(9), random.Random(9)
    assert random_words(["a"], 64, rng1) == random_words(["a"], 64, rng2)


def test_functions_equal_exhaustive(c17_circuit):
    assert functions_equal_exhaustive(c17_circuit, c17_circuit.copy())
    mutated = c17_circuit.copy("mut")
    mutated.replace_gate(mutated.gates["N16"].with_type(GateType.AND))
    assert not functions_equal_exhaustive(c17_circuit, mutated)


def test_toggle_activity_range(small_random_circuit):
    activity = toggle_activity(small_random_circuit, 256, seed=2)
    assert all(0.0 <= a <= 0.5 for a in activity.values())


def test_event_sim_rejects_sequential(sequential_circuit):
    with pytest.raises(ValueError):
        simulate_event_driven(sequential_circuit, {})


def test_simulate_words_rejects_sequential(sequential_circuit):
    with pytest.raises(ValueError):
        simulate_words(sequential_circuit, {}, 1)


def test_missing_stimulus_raises(c17_circuit):
    with pytest.raises(KeyError):
        output_words(c17_circuit, {"N1": 0}, 1)
