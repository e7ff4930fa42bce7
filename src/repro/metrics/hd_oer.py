"""Hamming distance (HD) and output error rate (OER) — Sec. IV-A.

"HD quantifies the difference for the output between the original netlist
and the one recovered by the attacker ... the ideal HD is ~50%.  OER
measures the likelihood of any output error in the netlist recovered by
the attacker; the higher the OER, the better the protection."

Both are Monte-Carlo estimates over uniform random input patterns,
computed bit-parallel (the paper uses 1M simulation runs; the harnesses
default to a scaled count and accept the full budget).
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.netlist.circuit import Circuit
from repro.sim.bitparallel import iter_pattern_chunks
from repro.sim.compiled import compile_circuit, int_to_lanes, popcount

if TYPE_CHECKING:
    from repro.attacks.result import RecoveredMachine

#: Default Monte-Carlo budget shared by every HD/OER consumer (the flow's
#: ``evaluate_split``, the defense evaluators, the campaign runner).  The
#: paper uses 1M runs; harnesses pass their own scaled budget explicitly.
DEFAULT_HD_PATTERNS = 20_000


@dataclass
class HdOerReport:
    """HD and OER in percent, plus the sample size used.

    ``engine`` records the simulation engine that computed the report
    (``compiled``) — excluded from equality, so the differential suites
    can compare a report against the big-int oracle's.
    """

    hd_percent: float
    oer_percent: float
    patterns: int
    engine: str = field(default="", compare=False)


def compute_hd_oer(
    original: Circuit,
    recovered: Circuit | RecoveredMachine,
    patterns: int = DEFAULT_HD_PATTERNS,
    seed: int = 5,
    chunk: int = 4096,
) -> HdOerReport:
    """Monte-Carlo HD/OER of *recovered* against *original*.

    *recovered* is a :class:`Circuit` or an attacker's
    :class:`~repro.attacks.result.RecoveredMachine`, which compiles
    straight from its index arrays.  Sequential designs are compared on
    their combinational cores (primary outputs plus next-state
    functions), the standard way sequential miters are approximated for
    attack evaluation; a machine is lowered that way already.
    """
    if original.is_sequential:
        original = original.combinational_core()
    if isinstance(recovered, Circuit) and recovered.is_sequential:
        recovered = recovered.combinational_core()
    if sorted(original.inputs) != sorted(recovered.inputs):
        raise ValueError("input interfaces differ; cannot compare")
    if len(original.outputs) != len(recovered.outputs):
        raise ValueError("output counts differ; cannot compare")

    # Compile both machines once and compare output rows in the array
    # domain.
    engine_a = compile_circuit(original)
    if isinstance(recovered, Circuit):
        engine_b = compile_circuit(recovered)
    else:
        engine_b = recovered.compile()
    return _compute_hd_oer_compiled(
        engine_a, engine_b, original.inputs, patterns, seed, chunk
    )


#: Chunks fused into one compiled sweep.  The RNG stream stays chunked
#: (so sampled patterns do not depend on the fusion); fusing only
#: amortizes per-sweep overhead over more lanes.
_SUPERCHUNK = 4

#: Active reference-sweep memo (``None`` outside the context manager):
#: maps (reference engine identity, patterns, seed, chunk) to the
#: recorded per-flush stimulus and reference output rows.
_REFERENCE_MEMO: dict | None = None


@contextmanager
def shared_reference_sweeps():
    """Reuse the reference machine's sweeps across sibling evaluations.

    Sibling grid cells compare many *recovered* netlists against the
    **same** original machine with the same (patterns, seed, chunk)
    budget; re-simulating the reference per sibling is pure waste.
    Inside this context, :func:`compute_hd_oer` records
    each flush's stimulus arrays and reference output rows on first
    use and replays them for later calls that share the reference
    engine and the exact pattern budget.

    Bit-identical by construction: the stimulus is replayed from the
    recorded arrays (same RNG stream, same chunk fusion) and the
    reference rows are the very arrays the first call computed.  The
    memo is scoped to the ``with`` block, so memory is bounded by one
    sibling group's reference sweeps.
    """
    global _REFERENCE_MEMO
    previous = _REFERENCE_MEMO
    _REFERENCE_MEMO = {}
    try:
        yield
    finally:
        _REFERENCE_MEMO = previous


def _compute_hd_oer_compiled(
    engine_a, engine_b, inputs, patterns, seed, chunk
) -> HdOerReport:
    num_outputs = len(engine_a.outputs)
    differing_bits = 0
    erroneous_patterns = 0
    total_patterns = 0

    memo = _REFERENCE_MEMO
    memo_key = (id(engine_a), patterns, seed, chunk)
    replay = memo.get(memo_key) if memo is not None else None
    if replay is not None:
        # Reference rows and stimulus were recorded by a sibling's
        # evaluation — only the recovered machine needs simulating.
        for arrays, lanes_total, rows_a in replay:
            diff = rows_a ^ engine_b.output_word_arrays(arrays, lanes_total)
            differing_bits += popcount(diff)
            erroneous_patterns += popcount(np.bitwise_or.reduce(diff, axis=0))
            total_patterns += lanes_total
        total_bits = total_patterns * num_outputs
        hd = 100.0 * differing_bits / total_bits if total_bits else 0.0
        oer = (
            100.0 * erroneous_patterns / total_patterns
            if total_patterns
            else 0.0
        )
        return HdOerReport(hd, oer, total_patterns, engine="compiled")

    recorded: list = [] if memo is not None else None
    rng = random.Random(seed)
    # Chunks can only be fused at uint64 word boundaries; a ragged chunk
    # size falls back to one sweep per chunk.
    fuse = _SUPERCHUNK if chunk % 64 == 0 else 1
    pending: list[tuple[dict[str, int], int]] = []

    def flush() -> None:
        nonlocal differing_bits, erroneous_patterns, total_patterns
        if not pending:
            return
        lanes_total = sum(lanes for _w, lanes in pending)
        if len(pending) == 1:
            arrays = pending[0][0]
        else:
            arrays = {
                net: np.concatenate(
                    [int_to_lanes(words[net], lanes) for words, lanes in pending]
                )
                for net in inputs
            }
        # One conversion feeds both machines (identical input interface).
        rows_a = engine_a.output_word_arrays(arrays, lanes_total)
        diff = rows_a ^ engine_b.output_word_arrays(arrays, lanes_total)
        if recorded is not None:
            recorded.append((arrays, lanes_total, rows_a))
        differing_bits += popcount(diff)
        erroneous_patterns += popcount(np.bitwise_or.reduce(diff, axis=0))
        total_patterns += lanes_total
        pending.clear()

    for words, lanes in iter_pattern_chunks(inputs, patterns, chunk, rng):
        pending.append((words, lanes))
        if len(pending) >= fuse or lanes % 64 != 0:
            flush()
    flush()
    if memo is not None:
        memo[memo_key] = recorded

    total_bits = total_patterns * num_outputs
    hd = 100.0 * differing_bits / total_bits if total_bits else 0.0
    oer = 100.0 * erroneous_patterns / total_patterns if total_patterns else 0.0
    return HdOerReport(hd, oer, total_patterns, engine="compiled")
