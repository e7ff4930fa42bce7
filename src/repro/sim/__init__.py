"""Logic simulation: one compiled bit-parallel engine over NumPy lanes,
with packed big-int words at its API boundary."""

from repro.sim.bitparallel import (
    exhaustive_words,
    functions_equal_exhaustive,
    mask_for,
    output_words,
    random_words,
    simulate_words,
    toggle_activity,
)
from repro.sim.compiled import CompiledCircuit, compile_circuit

__all__ = [
    "CompiledCircuit",
    "compile_circuit",
    "exhaustive_words",
    "functions_equal_exhaustive",
    "mask_for",
    "output_words",
    "random_words",
    "simulate_words",
    "toggle_activity",
]
