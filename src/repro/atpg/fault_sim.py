"""Bit-parallel stuck-at fault simulation.

:func:`fault_coverage` packs faults as override *columns* of one
vectorized sweep
(:meth:`repro.sim.compiled.CompiledCircuit.simulate_batch_array`), so a
whole fault universe is simulated in a handful of NumPy passes.  Its
differential oracle is the cone-based big-int fault simulator of
``tests/bigint_sim.py``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.atpg.faults import StuckAtFault
from repro.netlist.circuit import Circuit
from repro.sim.compiled import CompiledCircuit, compile_circuit, num_words, tail_mask

#: Memory budget of one batched fault-simulation sweep (bytes).  The
#: batch buffer is ``num_nets x batch x words``; chunking faults keeps
#: it cache-friendly instead of materializing the whole universe.
_BATCH_BUDGET_BYTES = 32 << 20


def fault_coverage(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    input_words: Mapping[str, int],
    num_patterns: int,
) -> tuple[float, list[StuckAtFault]]:
    """Coverage of *faults* by the batch; returns ``(ratio, undetected)``."""
    if circuit.is_sequential:
        raise ValueError("fault simulation expects a combinational circuit")
    detected = _batch_detected(
        compile_circuit(circuit), faults, input_words, num_patterns
    )
    undetected = [f for f, hit in zip(faults, detected) if not hit]
    covered = len(faults) - len(undetected)
    ratio = covered / len(faults) if faults else 1.0
    return ratio, undetected


def _batch_detected(
    engine: CompiledCircuit,
    faults: Sequence[StuckAtFault],
    input_words: Mapping[str, int],
    num_patterns: int,
) -> list[bool]:
    """Per-fault detection flags via column-batched compiled sweeps."""
    # Convert the stimulus once; every batched sweep below reuses it.
    arrays = engine.input_lane_arrays(input_words, num_patterns)
    good = engine.simulate_array(arrays, num_patterns)
    good_out = good[engine.output_slots]
    nw = num_words(num_patterns)
    stuck_rows = {}
    for value in (0, 1):
        row = np.full(nw, np.uint64(0xFFFFFFFFFFFFFFFF) if value else 0,
                      dtype=np.uint64)
        if value and nw:
            row[-1] &= tail_mask(num_patterns)
        stuck_rows[value] = row

    detected = [False] * len(faults)
    excited: list[int] = []
    for position, fault in enumerate(faults):
        slot = engine.index[fault.net]
        # A fault whose net already carries the stuck value on every
        # lane is never excited by this batch: detection word is zero.
        if not np.array_equal(good[slot], stuck_rows[fault.value]):
            excited.append(position)

    batch = max(
        1, min(128, _BATCH_BUDGET_BYTES // max(1, engine.num_nets * nw * 8))
    )
    for start in range(0, len(excited), batch):
        group = excited[start : start + batch]
        override_sets = [
            {faults[i].net: stuck_rows[faults[i].value]} for i in group
        ]
        buf = engine.simulate_batch_array(
            arrays, num_patterns, override_sets
        )
        diff = buf[engine.output_slots] ^ good_out[:, None, :]
        hits = np.bitwise_or.reduce(diff, axis=0).any(axis=1)
        for i, hit in zip(group, hits):
            detected[i] = bool(hit)
    return detected
