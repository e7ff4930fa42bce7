"""Logic simulation: bit-parallel engines, big-int and compiled
vectorized."""

from repro.sim.bitparallel import (
    compiled_engine_for,
    count_differing_lanes,
    exhaustive_words,
    functions_equal_exhaustive,
    mask_for,
    output_words,
    pack_patterns,
    random_words,
    signal_probabilities,
    simulate_patterns,
    simulate_words,
    simulate_words_bigint,
    toggle_activity,
    unpack_word,
)
from repro.sim.compiled import CompiledCircuit, compile_circuit

__all__ = [
    "CompiledCircuit",
    "compile_circuit",
    "compiled_engine_for",
    "count_differing_lanes",
    "exhaustive_words",
    "functions_equal_exhaustive",
    "mask_for",
    "output_words",
    "pack_patterns",
    "random_words",
    "signal_probabilities",
    "simulate_patterns",
    "simulate_words",
    "simulate_words_bigint",
    "toggle_activity",
    "unpack_word",
]
