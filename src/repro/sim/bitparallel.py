"""Bit-parallel combinational logic simulation.

Patterns are packed into arbitrary-width Python integers, one *word* per
net, one bit lane per pattern.  A single topological sweep therefore
evaluates every pattern at once; CPython big-int bitwise ops make this fast
enough to exhaustively simulate cones of ~20 inputs (2^20 lanes) in one
pass, which is how the ATPG substrate enumerates exact failing sets.

Two engines share the ``simulate_words``/``output_words`` signatures:

* the **big-int** engine below — zero setup cost, best for tiny circuits
  and one-shot sweeps (it remains the reference implementation);
* the **compiled** engine (:mod:`repro.sim.compiled`) — levelizes the
  circuit once into a flat NumPy program and amortizes that across
  repeated sweeps (HD/OER campaigns, fault simulation, attacks).

``simulate_words`` picks automatically by circuit/batch size; the
``REPRO_SIM_ENGINE`` environment knob (``auto``/``compiled``/``bigint``)
forces either engine.  Both produce bit-identical words.
"""

from __future__ import annotations

import functools
import random
from typing import Iterable, Mapping, Sequence

from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType, evaluate_gate_words
from repro.utils.env import env_choice

#: "auto" thresholds: the compiled engine pays one levelization plus a
#: few array allocations per call, so tiny circuits or narrow batches
#: stay on the big-int path.  Tuned with ``benchmarks/bench_sim.py``.
COMPILED_MIN_PATTERNS = 64
COMPILED_MIN_GATES = 24


def _sim_engine_knob() -> str:
    return env_choice("REPRO_SIM_ENGINE", ("auto", "compiled", "bigint"), "auto")


def compiled_engine_for(circuit: Circuit, num_patterns: int):
    """The cached compiled engine for *circuit*, or ``None``.

    ``None`` means the caller should stay on the big-int path: the knob
    forces it, or the sweep is too small to amortize compilation.
    Sequential circuits are never compiled (the callers' explicit
    ``is_sequential`` errors stay authoritative).
    """
    if circuit.is_sequential or not wants_compiled(len(circuit.gates), num_patterns):
        return None
    from repro.sim.compiled import compile_circuit

    return compile_circuit(circuit)


def wants_compiled(num_gates: int, num_patterns: int) -> bool:
    """Whether a *num_gates* netlist sweeps *num_patterns* on the compiled
    engine: not when the knob forces big-int, nor (``auto``) when the
    sweep is too small to amortize compilation."""
    knob = _sim_engine_knob()
    if knob == "bigint":
        return False
    return knob == "compiled" or (
        num_patterns >= COMPILED_MIN_PATTERNS and num_gates >= COMPILED_MIN_GATES
    )


def mask_for(num_patterns: int) -> int:
    """All-ones mask covering *num_patterns* bit lanes."""
    return (1 << num_patterns) - 1


def pack_patterns(patterns: Sequence[Sequence[int]], inputs: Sequence[str]) -> dict[str, int]:
    """Pack row-per-pattern 0/1 matrices into per-input words.

    ``patterns[p][i]`` is the value of ``inputs[i]`` in pattern *p*; lane
    *p* of the returned word for that input carries it.
    """
    words = {net: 0 for net in inputs}
    for lane, pattern in enumerate(patterns):
        if len(pattern) != len(inputs):
            raise ValueError(
                f"pattern {lane} has {len(pattern)} values for "
                f"{len(inputs)} inputs"
            )
        bit = 1 << lane
        for net, value in zip(inputs, pattern):
            if value:
                words[net] |= bit
    return words


def unpack_word(word: int, num_patterns: int) -> list[int]:
    """Expand a packed word back into a per-pattern 0/1 list."""
    return [(word >> lane) & 1 for lane in range(num_patterns)]


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

    Dispatches between the big-int and compiled engines (see the module
    docstring); results are bit-identical either way.
    """
    if circuit.is_sequential:
        raise ValueError(
            "simulate_words handles combinational circuits; lower with "
            "combinational_core() first"
        )
    engine = compiled_engine_for(circuit, num_patterns)
    if engine is not None:
        return engine.simulate(input_words, num_patterns, overrides)
    return simulate_words_bigint(circuit, input_words, num_patterns, overrides)


def simulate_words_bigint(
    circuit: Circuit,
    input_words: Mapping[str, int],
    num_patterns: int,
    overrides: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """The reference big-int engine (see :func:`simulate_words`)."""
    if circuit.is_sequential:
        raise ValueError(
            "simulate_words handles combinational circuits; lower with "
            "combinational_core() first"
        )
    mask = mask_for(num_patterns)
    values: dict[str, int] = {}
    overrides = overrides or {}
    for net in circuit.topological_order():
        if net in overrides:
            values[net] = overrides[net] & mask
            continue
        gate = circuit.gates[net]
        if gate.gate_type is GateType.INPUT:
            try:
                values[net] = input_words[net] & mask
            except KeyError as exc:
                raise KeyError(f"no stimulus for primary input {net!r}") from exc
        else:
            fanin_words = [values[n] for n in gate.fanin]
            values[net] = evaluate_gate_words(gate.gate_type, fanin_words, mask)
    return values


def simulate_patterns(
    circuit: Circuit,
    patterns: Sequence[Sequence[int]],
    overrides: Mapping[str, int] | None = None,
) -> list[list[int]]:
    """Row-per-pattern convenience wrapper; returns output rows.

    Lanes are extracted from each output word in one pass (binary
    formatting of a big int is linear) instead of shifting the whole
    word once per lane, which made wide batches quadratic in the
    pattern count per output.
    """
    lanes = len(patterns)
    words = pack_patterns(patterns, circuit.inputs)
    values = simulate_words(circuit, words, lanes, overrides=overrides)
    rows = [[0] * len(circuit.outputs) for _ in range(lanes)]
    for column, out in enumerate(circuit.outputs):
        bits = format(values[out], "b")[::-1]  # bits[lane] is lane's value
        for lane, bit in enumerate(bits):
            if bit == "1":
                rows[lane][column] = 1
    return rows


def output_words(
    circuit: Circuit,
    input_words: Mapping[str, int],
    num_patterns: int,
    overrides: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """Like :func:`simulate_words` but returns only primary-output words."""
    engine = compiled_engine_for(circuit, num_patterns)
    if engine is not None:
        # Skip the full per-net big-int conversion; only output rows
        # leave the array domain.
        return engine.output_words(input_words, num_patterns, overrides)
    values = simulate_words(circuit, input_words, num_patterns, overrides=overrides)
    return {net: values[net] for net in circuit.outputs}


def count_differing_lanes(word_a: int, word_b: int) -> int:
    """Number of lanes where two packed words disagree (popcount of XOR)."""
    return (word_a ^ word_b).bit_count()


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
    probabilities = _net_one_probabilities(circuit, words, num_patterns)
    return {
        net: 2.0 * p * (1.0 - p) for net, p in probabilities.items()
    }


def signal_probabilities(
    circuit: Circuit, num_patterns: int, seed: int = 0
) -> dict[str, float]:
    """Per-net probability of logic 1 over random patterns."""
    rng = random.Random(seed)
    words = random_words(circuit.inputs, num_patterns, rng)
    return _net_one_probabilities(circuit, words, num_patterns)


def _net_one_probabilities(
    circuit: Circuit, words: Mapping[str, int], num_patterns: int
) -> dict[str, float]:
    """Per-net signal-1 probability; popcounts stay in the array domain
    on the compiled engine (no per-net big-int round trip)."""
    engine = compiled_engine_for(circuit, num_patterns)
    if engine is not None:
        from repro.sim.compiled import popcount_rows

        buf = engine.simulate_array(words, num_patterns)
        counts = popcount_rows(buf)
        return {
            net: int(counts[slot]) / num_patterns
            for net, slot in engine.index.items()
        }
    values = simulate_words(circuit, words, num_patterns)
    return {net: word.bit_count() / num_patterns for net, word in values.items()}


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
