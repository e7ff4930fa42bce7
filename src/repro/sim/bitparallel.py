"""Bit-parallel combinational logic simulation over packed words.

Patterns are packed into arbitrary-width Python integers, one *word* per
net, one bit lane per pattern.  :func:`simulate_words` and
:func:`output_words` evaluate a circuit over such words on the compiled
engine (:mod:`repro.sim.compiled`), which levelizes the circuit once
into a flat NumPy program and caches it per circuit, so every sweep of
the same circuit reuses one program.  The big-int reference engine that
walks the netlist gate by gate is the differential oracle of the tests
(``tests/bigint_sim.py``).
"""

from __future__ import annotations

import functools
import random
from typing import Iterable, Mapping, Sequence

from repro.netlist.circuit import Circuit
from repro.sim.compiled import CompiledCircuit, compile_circuit, popcount_rows


def _engine(circuit: Circuit) -> CompiledCircuit:
    """The cached compiled program of a combinational *circuit*."""
    if circuit.is_sequential:
        raise ValueError(
            "simulate_words handles combinational circuits; lower with "
            "combinational_core() first"
        )
    return compile_circuit(circuit)


def mask_for(num_patterns: int) -> int:
    """All-ones mask covering *num_patterns* bit lanes."""
    return (1 << num_patterns) - 1


def exhaustive_words(inputs: Sequence[str]) -> tuple[dict[str, int], int]:
    """Input words enumerating all 2^n assignments.

    Lane *p* carries the assignment whose bit *i* (LSB = ``inputs[0]``)
    equals ``(p >> i) & 1`` — the classic periodic-pattern construction.
    Returns ``(words, num_patterns)``; the words are memoised per width,
    and every call returns a fresh dict.
    """
    columns = _exhaustive_columns(len(inputs))
    return dict(zip(inputs, columns)), 1 << len(inputs)


@functools.cache
def _exhaustive_columns(n: int) -> tuple[int, ...]:
    num_patterns = 1 << n
    columns: list[int] = []
    for index in range(n):
        period = 1 << index
        block = (1 << period) - 1  # `period` ones
        word = 0
        for start in range(period, num_patterns, period * 2):
            word |= block << start
        columns.append(word)
    return tuple(columns)


def random_words(
    inputs: Sequence[str], num_patterns: int, rng: random.Random
) -> dict[str, int]:
    """Uniform random input words over *num_patterns* lanes."""
    return {net: rng.getrandbits(num_patterns) for net in inputs}


def simulate_words(
    circuit: Circuit,
    input_words: Mapping[str, int],
    num_patterns: int,
    overrides: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """Evaluate *circuit* over packed input words; returns words per net.

    *overrides* forces the word of the named nets regardless of their
    drivers — the mechanism used for stuck-at fault injection (a stuck net
    is overridden with the all-0/all-1 word) and for tying key inputs.
    Sequential circuits must be lowered via ``combinational_core`` first.
    """
    return _engine(circuit).simulate(input_words, num_patterns, overrides)


def output_words(
    circuit: Circuit,
    input_words: Mapping[str, int],
    num_patterns: int,
    overrides: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """Like :func:`simulate_words` but returns only primary-output words
    (only output rows leave the array domain)."""
    return _engine(circuit).output_words(input_words, num_patterns, overrides)


def toggle_activity(
    circuit: Circuit,
    num_patterns: int,
    seed: int = 0,
    inputs_words: Mapping[str, int] | None = None,
) -> dict[str, float]:
    """Per-net switching activity estimate over random patterns.

    Activity of a net is the probability that two consecutive random
    patterns produce different values, estimated as ``2 * p * (1 - p)``
    with *p* the signal probability.  Used by the power model.
    """
    rng = random.Random(seed)
    words = dict(inputs_words or random_words(circuit.inputs, num_patterns, rng))
    engine = _engine(circuit)
    # Popcounts stay in the array domain (no per-net big-int round trip).
    counts = popcount_rows(engine.simulate_array(words, num_patterns))
    activity = {}
    for net, slot in engine.index.items():
        p = int(counts[slot]) / num_patterns
        activity[net] = 2.0 * p * (1.0 - p)
    return activity


def functions_equal_exhaustive(a: Circuit, b: Circuit) -> bool:
    """Exhaustively compare two circuits with identical input/output sets."""
    if set(a.inputs) != set(b.inputs) or list(a.outputs) != list(b.outputs):
        raise ValueError("circuits must share input and output interfaces")
    words, num = exhaustive_words(a.inputs)
    out_a = output_words(a, words, num)
    out_b = output_words(b, words, num)
    return all(out_a[net] == out_b[net] for net in a.outputs)


def iter_pattern_chunks(
    inputs: Sequence[str],
    total_patterns: int,
    chunk: int,
    rng: random.Random,
) -> Iterable[tuple[dict[str, int], int]]:
    """Yield ``(input_words, lanes)`` chunks for Monte-Carlo campaigns."""
    remaining = total_patterns
    while remaining > 0:
        lanes = min(chunk, remaining)
        yield random_words(inputs, lanes, rng), lanes
        remaining -= lanes
