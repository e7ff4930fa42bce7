"""Compiled vectorized logic simulation over NumPy ``uint64`` lanes.

Every paper metric (HD/OER over 20k patterns, fault coverage, the attack
evaluators) sweeps the *same* circuit thousands of times, so this module
levelizes a circuit **once** into a flat op program — int op-codes plus
fanin index arrays — and evaluates it over ``numpy.uint64`` arrays with
``N x 64`` multi-word pattern batches:

* net *slots* are permuted so that all gates of one (level, base-op,
  arity) **bucket** occupy a contiguous slot range: one fancy-indexed
  gather plus one ``out=``-targeted ufunc call evaluates the whole
  bucket, so the Python interpreter cost is O(buckets), not O(gates);
* inverting gate types (NAND/NOR/XNOR/NOT) share their base bucket and
  are flipped afterwards with a per-gate invert-mask column;
* an *overrides* channel forces named nets to fixed words (stuck-at
  injection, key tying), applied level-interleaved so downstream gates
  observe the forced value exactly as in the big-int oracle;
* a *batch* axis evaluates many override scenarios (e.g. all stuck-at
  faults of a chunk) against one stimulus load in a single sweep.

One program builder serves every compile: it takes a :class:`NetTable`
(index arrays, one row per net) and a level per row.  A circuit is
flattened into one; :meth:`CompiledCircuit.from_table` compiles one with
no :class:`Circuit` at all (the attacker's netlist, :mod:`repro.attacks.
result`).

Programs are cached per circuit (invalidated on any structural edit);
:func:`compile_circuit` is the entry point.  Results are bit-identical
to the gate-by-gate big-int oracle of ``tests/bigint_sim.py`` — the
differential suite in ``tests/test_sim_compiled.py`` enforces that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.netlist.circuit import Circuit, Gate
from repro.netlist.gate_types import GateType

_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)
_ZERO = np.uint64(0)

#: Flat op-codes: the three reducible bitwise bases plus plain copy.
#: Inverting types are the same base with an invert mask; degenerate
#: single-input AND/OR/XOR collapse to COPY (as in the big-int oracle).
OP_AND, OP_OR, OP_XOR, OP_COPY = 0, 1, 2, 3

_OP_OF_TYPE: dict[GateType, tuple[int, bool]] = {
    GateType.AND: (OP_AND, False),
    GateType.NAND: (OP_AND, True),
    GateType.OR: (OP_OR, False),
    GateType.NOR: (OP_OR, True),
    GateType.XOR: (OP_XOR, False),
    GateType.XNOR: (OP_XOR, True),
    GateType.BUF: (OP_COPY, False),
    GateType.NOT: (OP_COPY, True),
}

_UFUNC_OF_OP = {
    OP_AND: np.bitwise_and,
    OP_OR: np.bitwise_or,
    OP_XOR: np.bitwise_xor,
}

#: Column-block width (uint64 words) of one sweep pass.  Wide batches are
#: evaluated block by block so the whole value buffer of a block stays
#: cache-resident; a single monolithic pass over a multi-megaword buffer
#: thrashes the gather/scatter working set.  256 words = 16384 lanes.
BLOCK_WORDS = 256


# ----------------------------------------------------------------------
# Word-layout helpers (shared by the engine and its consumers)
# ----------------------------------------------------------------------
def num_words(num_patterns: int) -> int:
    """uint64 words needed to carry *num_patterns* bit lanes."""
    return (num_patterns + 63) // 64


def tail_mask(num_patterns: int) -> np.uint64:
    """Valid-lane mask of the final (possibly partial) uint64 word."""
    rem = num_patterns % 64
    if rem == 0:
        return _FULL
    return np.uint64((1 << rem) - 1)


def int_to_lanes(word: int, num_patterns: int) -> np.ndarray:
    """Pack a Python big-int word into a little-endian uint64 lane array.

    The result is a read-only view over the serialized bytes (callers
    assign it into value buffers, which copies); masking is skipped when
    the word already fits the lane count.
    """
    n = num_words(num_patterns)
    if word < 0 or word.bit_length() > num_patterns:
        word &= (1 << num_patterns) - 1
    data = word.to_bytes(n * 8, "little")
    return np.frombuffer(data, dtype="<u8")


def lanes_to_int(lanes: np.ndarray) -> int:
    """Inverse of :func:`int_to_lanes` (lanes must already be masked)."""
    return int.from_bytes(
        np.ascontiguousarray(lanes, dtype="<u8").tobytes(), "little"
    )


def popcount(lanes: np.ndarray) -> int:
    """Total set bits of a lane array (numpy>=2 fast path)."""
    if hasattr(np, "bitwise_count"):
        return int(np.bitwise_count(lanes).sum())
    return int(np.unpackbits(np.ascontiguousarray(lanes).view(np.uint8)).sum())


def popcount_rows(lanes: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts (popcount summed over the last axis)."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(lanes).sum(axis=-1)
    flat = np.ascontiguousarray(lanes).view(np.uint8)
    return np.unpackbits(
        flat.reshape(lanes.shape[:-1] + (lanes.shape[-1] * 8,)), axis=-1
    ).sum(axis=-1)


def set_lane_indices(lanes: np.ndarray) -> np.ndarray:
    """Indices of the set bit lanes of a 1-D masked lane array."""
    bits = np.unpackbits(
        np.ascontiguousarray(lanes).view(np.uint8), bitorder="little"
    )
    return np.flatnonzero(bits)


#: Bucket invert modes (precompiled; checking per sweep is wasted work).
_INV_NONE, _INV_ALL, _INV_MIXED = 0, 1, 2


@dataclass
class _Bucket:
    """All gates of one level sharing a base op-code and a fanin arity.

    Destinations are the contiguous slot range ``[start, end)`` (the
    compiler permutes slots to make that true), so the op ufunc writes
    straight into the value buffer.  ``inv_mode`` says how the bucket
    inverts: not at all, every gate (one ``bitwise_not`` pass), or a
    per-gate mask XORed in (mixed NAND/AND-style buckets).
    """

    level: int
    op: int
    start: int
    end: int
    src: np.ndarray  # (arity, n) fanin slots per gate
    inv_mode: int
    inv_mask: np.ndarray | None  # (n,) 0/all-ones mask when mixed


#: Row kinds of a :class:`NetTable`: the three source kinds, then gates.
KIND_INPUT, KIND_TIEHI, KIND_TIELO, KIND_GATE = 0, 1, 2, 3

#: ``(kind, op, invert)`` per gate type; a DFF is a pseudo input.
_CODES = {
    GateType.INPUT: (KIND_INPUT, OP_COPY, False),
    GateType.DFF: (KIND_INPUT, OP_COPY, False),
    GateType.TIEHI: (KIND_TIEHI, OP_COPY, False),
    GateType.TIELO: (KIND_TIELO, OP_COPY, False),
    **{t: (KIND_GATE, op, inv) for t, (op, inv) in _OP_OF_TYPE.items()},
}


@dataclass
class NetTable:
    """Row *i* is net ``names[i]``: its ``kind``, base ``op`` and ``invert``
    flag, and its drivers' rows, the first ``arity[i]`` of ``fanin[i]``."""

    names: list[str]
    kind: np.ndarray
    op: np.ndarray
    invert: np.ndarray
    arity: np.ndarray
    fanin: np.ndarray


def net_table(gates: Sequence[Gate], row: Mapping[str, int]) -> NetTable:
    """The :class:`NetTable` of *gates*, in order; *row* maps a net to its row."""
    codes = np.array([_CODES[g.gate_type] for g in gates], np.intp).reshape(-1, 3)
    arity = np.array([len(g.fanin) for g in gates], dtype=np.intp)
    fanin = np.zeros((len(gates), max(1, arity.max(initial=0))), dtype=np.intp)
    fanin[np.arange(fanin.shape[1]) < arity[:, None]] = [
        row[net] for g in gates for net in g.fanin
    ]
    kind, op, invert = codes.T
    return NetTable([g.name for g in gates], kind, op, invert, arity, fanin)


class CompiledCircuit:
    """A circuit levelized into a flat vectorized op program.

    Net *slots* are engine-internal indices (level-major, bucket-sorted);
    :attr:`index` maps net name to slot and :attr:`nets` back.  Use
    :func:`compile_circuit` to obtain cached instances, or
    :meth:`from_table` to compile a :class:`NetTable` with no circuit.
    """

    def __init__(self, circuit: Circuit) -> None:
        if circuit.is_sequential:
            raise ValueError(
                "compiled simulation handles combinational circuits; lower "
                "with combinational_core() first"
            )
        topo = circuit.topological_order()
        levels = circuit.levels()
        row = circuit.topological_index()
        self._topo_ref = topo  # identity token: invalidation on edits
        self._build(
            circuit.name,
            net_table([circuit.gates[net] for net in topo], row),
            np.array([levels[net] for net in topo], dtype=np.intp),
            [row[net] for net in circuit.outputs],
            circuit.inputs,
            levels,
        )

    @classmethod
    def from_table(
        cls, name: str, table: NetTable, level: np.ndarray, outputs: Sequence[int]
    ) -> "CompiledCircuit":
        """Compile *table* given each row's combinational *level* and the
        *outputs* rows; the inputs are its ``KIND_INPUT`` rows, in order."""
        self = cls.__new__(cls)
        self._topo_ref = None
        self._build(name, table, level, outputs)
        return self

    def _build(
        self,
        name: str,
        table: NetTable,
        level: np.ndarray,
        outputs: Sequence[int],
        inputs: Sequence[str] | None = None,
        level_of: dict[str, int] | None = None,
    ) -> None:
        """The one program builder: one stable sort puts the sources first,
        in row order, then the gates by ``(level, op, arity)``, so each
        bucket owns a contiguous slot range; every bucket's source slots
        are cut from one remapped fanin matrix."""
        kind, arity, nets = table.kind, table.arity, table.names
        self.name = name
        self.num_nets = len(nets)
        self.num_levels = int(level.max()) + 1 if len(nets) else 1
        if inputs is None:
            inputs = [nets[i] for i in np.flatnonzero(kind == KIND_INPUT)]
        self.inputs: list[str] = list(inputs)
        self.level_of = level_of or dict(zip(nets, level.tolist()))

        # Degenerate single-input AND/OR/XOR families behave as BUF (or
        # NOT when inverting) — same as the big-int oracle.
        op = np.where(arity == 1, OP_COPY, table.op)
        stride = table.fanin.shape[1] + 1
        is_gate = kind == KIND_GATE
        key = np.where(is_gate, (level * 4 + op) * stride + arity, -1)
        # Python's stable sort keeps pace with NumPy's at these sizes, and
        # NumPy's would map ~128 KB more library pages into every worker.
        order = sorted(range(len(nets)), key=key.tolist().__getitem__)
        order = np.array(order, dtype=np.intp)
        slot = np.empty(len(nets), dtype=np.intp)
        slot[order] = np.arange(len(nets))
        base = len(nets) - int(np.count_nonzero(is_gate))

        self.nets: list[str] = [nets[i] for i in order.tolist()]
        self.index: dict[str, int] = {net: i for i, net in enumerate(self.nets)}
        self.output_slots = slot[np.asarray(outputs, dtype=np.intp)]
        self.outputs: list[str] = [nets[i] for i in outputs]
        source_kind = kind[order[:base]]
        self._input_slots = [
            (self.nets[i], i)
            for i in np.flatnonzero(source_kind == KIND_INPUT).tolist()
        ]
        self._tie_hi = np.flatnonzero(source_kind == KIND_TIEHI)
        self._tie_lo = np.flatnonzero(source_kind == KIND_TIELO)

        self._buckets_by_level: list[list[_Bucket]] = [
            [] for _ in range(self.num_levels)
        ]
        gates = order[base:]
        self.num_buckets = 0
        if not len(gates):
            return
        g_key = key[gates]
        g_invert = table.invert[gates]
        inverts = g_invert.tolist()
        src = slot[table.fanin[gates]]
        starts = np.flatnonzero(np.concatenate(([True], g_key[1:] != g_key[:-1])))
        starts = starts.tolist()
        ends = starts[1:] + [len(gates)]
        for start, end, bucket_key in zip(starts, ends, g_key[starts].tolist()):
            level_op, bucket_arity = divmod(bucket_key, stride)
            lvl, bop = divmod(level_op, 4)
            count = sum(inverts[start:end])
            if count == 0:
                inv_mode, inv_mask = _INV_NONE, None
            elif count == end - start:
                inv_mode, inv_mask = _INV_ALL, None
            else:
                inv_mode = _INV_MIXED
                inv_mask = np.where(g_invert[start:end], _FULL, _ZERO)
            fan = src[start:end, :bucket_arity].T.copy()
            self._buckets_by_level[lvl].append(
                _Bucket(lvl, bop, base + start, base + end, fan, inv_mode, inv_mask)
            )
        self.num_buckets = len(starts)

    # ------------------------------------------------------------------
    # Core sweep
    # ------------------------------------------------------------------
    def _sweep(
        self,
        buf: np.ndarray,
        forced: dict[int, list[tuple[int, int | None, np.ndarray]]],
    ) -> None:
        """Evaluate the program into *buf* (slot-major), level by level.

        *forced* maps level -> [(slot, column, lanes)]; a ``None`` column
        forces the whole batch row.  Forcings of a level are applied
        after that level's buckets, before any reader (always at a
        strictly higher level) is evaluated.
        """
        mask_shape = (-1,) + (1,) * (buf.ndim - 1)
        take = buf.take
        for level, buckets in enumerate(self._buckets_by_level):
            for b in buckets:
                fan = take(b.src, axis=0)
                view = buf[b.start : b.end]
                op = b.op
                if op == OP_COPY:
                    if b.inv_mode == _INV_ALL:
                        np.bitwise_not(fan[0], out=view)
                        continue
                    np.copyto(view, fan[0])
                elif fan.shape[0] == 2:
                    _UFUNC_OF_OP[op](fan[0], fan[1], out=view)
                else:
                    _UFUNC_OF_OP[op].reduce(fan, axis=0, out=view)
                if b.inv_mode == _INV_ALL:
                    np.bitwise_not(view, out=view)
                elif b.inv_mode == _INV_MIXED:
                    view ^= b.inv_mask.reshape(mask_shape)
            for slot, column, lanes in forced.get(level, ()):
                if column is None:
                    buf[slot] = lanes
                else:
                    buf[slot, column] = lanes

    def input_lane_arrays(
        self,
        input_words: Mapping[str, int] | Mapping[str, np.ndarray],
        num_patterns: int,
        skip: frozenset[int] | set[int] = frozenset(),
    ) -> dict[str, np.ndarray]:
        """Stimulus as lane arrays, one entry per primary input.

        Big-int words are converted via :func:`int_to_lanes`; arrays
        pass through.  Raises the canonical "no stimulus" ``KeyError``
        for missing inputs.  This is the single conversion point shared
        by the sweep loaders and batch consumers (e.g. fault
        simulation), so stimulus semantics live in one place.
        """
        arrays: dict[str, np.ndarray] = {}
        for net, slot in self._input_slots:
            if slot in skip:
                continue
            try:
                word = input_words[net]
            except KeyError as exc:
                raise KeyError(f"no stimulus for primary input {net!r}") from exc
            arrays[net] = (
                word
                if isinstance(word, np.ndarray)
                else int_to_lanes(word, num_patterns)
            )
        return arrays

    def _load_sources(
        self,
        buf: np.ndarray,
        input_words: Mapping[str, int] | Mapping[str, np.ndarray],
        num_patterns: int,
        skip: set[int],
    ) -> None:
        arrays = self.input_lane_arrays(input_words, num_patterns, skip)
        for net, slot in self._input_slots:
            if slot in skip:
                continue
            buf[slot] = arrays[net]
        if len(self._tie_hi):
            buf[self._tie_hi] = _FULL
        if len(self._tie_lo):
            buf[self._tie_lo] = _ZERO

    def _forced_entries(
        self,
        overrides: Mapping[str, int] | None,
        num_patterns: int,
        column: int | None,
        forced: dict[int, list[tuple[int, int | None, np.ndarray]]],
        skip: set[int],
    ) -> None:
        if not overrides:
            return
        for net, word in overrides.items():
            slot = self.index.get(net)
            if slot is None:
                continue  # ignored, as by the big-int oracle
            lanes = (
                word
                if isinstance(word, np.ndarray)
                else int_to_lanes(word, num_patterns)
            )
            forced.setdefault(self.level_of[net], []).append(
                (slot, column, lanes)
            )
            if column is None:
                skip.add(slot)

    def _mask_tail(self, buf: np.ndarray, num_patterns: int) -> None:
        if buf.shape[-1]:
            buf[..., -1] &= tail_mask(num_patterns)

    def _run(
        self,
        buf: np.ndarray,
        input_words: Mapping[str, int] | Mapping[str, np.ndarray],
        num_patterns: int,
        forced: dict[int, list[tuple[int, int | None, np.ndarray]]],
        skip: set[int],
    ) -> None:
        """Load sources and sweep, column-blocked for wide batches."""
        nw = buf.shape[-1]
        batch = buf.shape[1] if buf.ndim == 3 else 1
        block = max(16, BLOCK_WORDS // max(1, batch))
        if nw <= block:
            self._load_sources(buf, input_words, num_patterns, skip)
            self._sweep(buf, forced)
            return
        arrays = self.input_lane_arrays(input_words, num_patterns, skip)
        scratch = np.empty(buf.shape[:-1] + (block,), dtype=np.uint64)
        for b0 in range(0, nw, block):
            b1 = min(nw, b0 + block)
            # Sweep in a contiguous scratch block (fancy gathers over a
            # strided view of *buf* would fall off numpy's fast paths),
            # then copy the block into place.
            sub = (
                scratch
                if b1 - b0 == block
                else np.empty(buf.shape[:-1] + (b1 - b0,), dtype=np.uint64)
            )
            sub_forced = {
                level: [(slot, col, lanes[b0:b1]) for slot, col, lanes in entries]
                for level, entries in forced.items()
            }
            self._load_sources(
                sub,
                {net: arr[b0:b1] for net, arr in arrays.items()},
                num_patterns,
                skip,
            )
            self._sweep(sub, sub_forced)
            buf[..., b0:b1] = sub

    # ------------------------------------------------------------------
    # Public evaluation APIs
    # ------------------------------------------------------------------
    def simulate_array(
        self,
        input_words: Mapping[str, int] | Mapping[str, np.ndarray],
        num_patterns: int,
        overrides: Mapping[str, int] | None = None,
    ) -> np.ndarray:
        """Evaluate one stimulus batch; returns ``(num_nets, words)``.

        The returned buffer is tail-masked: bits beyond *num_patterns*
        are zero in every row.  Rows are indexed by :attr:`index`.
        """
        buf = np.empty((self.num_nets, num_words(num_patterns)), dtype=np.uint64)
        forced: dict[int, list[tuple[int, int | None, np.ndarray]]] = {}
        skip: set[int] = set()
        self._forced_entries(overrides, num_patterns, None, forced, skip)
        self._run(buf, input_words, num_patterns, forced, skip)
        self._mask_tail(buf, num_patterns)
        return buf

    def simulate_batch_array(
        self,
        input_words: Mapping[str, int] | Mapping[str, np.ndarray],
        num_patterns: int,
        override_sets: Sequence[Mapping[str, int] | None],
    ) -> np.ndarray:
        """Evaluate many override scenarios against one stimulus load.

        Scenario *k* of *override_sets* occupies column *k* of the
        returned ``(num_nets, len(override_sets), words)`` buffer — the
        mechanism behind batched stuck-at fault simulation (each fault
        is one override column) and key-guess sweeps.
        """
        batch = len(override_sets)
        buf = np.empty(
            (self.num_nets, batch, num_words(num_patterns)), dtype=np.uint64
        )
        forced: dict[int, list[tuple[int, int | None, np.ndarray]]] = {}
        for column, overrides in enumerate(override_sets):
            self._forced_entries(overrides, num_patterns, column, forced, set())
        self._run(buf, input_words, num_patterns, forced, set())
        self._mask_tail(buf, num_patterns)
        return buf

    def simulate(
        self,
        input_words: Mapping[str, int],
        num_patterns: int,
        overrides: Mapping[str, int] | None = None,
    ) -> dict[str, int]:
        """Words per net as Python ints (see ``simulate_words``)."""
        buf = self.simulate_array(input_words, num_patterns, overrides)
        return {net: lanes_to_int(buf[i]) for i, net in enumerate(self.nets)}

    def output_word_arrays(
        self,
        input_words: Mapping[str, int] | Mapping[str, np.ndarray],
        num_patterns: int,
        overrides: Mapping[str, int] | None = None,
    ) -> np.ndarray:
        """Primary-output rows only, shape ``(num_outputs, words)``."""
        buf = self.simulate_array(input_words, num_patterns, overrides)
        return buf[self.output_slots]

    def output_words(
        self,
        input_words: Mapping[str, int],
        num_patterns: int,
        overrides: Mapping[str, int] | None = None,
    ) -> dict[str, int]:
        """Primary-output words as Python ints (see ``output_words``)."""
        buf = self.simulate_array(input_words, num_patterns, overrides)
        return {
            net: lanes_to_int(buf[self.index[net]]) for net in self.outputs
        }


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Compile *circuit* (cached; invalidated on any structural edit).

    The cache token is the identity of the circuit's topological-order
    list: every structural edit clears that cache, so the next call
    observes a fresh list object and recompiles.
    """
    cached = getattr(circuit, "_compiled_cache", None)
    if (
        isinstance(cached, CompiledCircuit)
        and cached._topo_ref is circuit._topo_cache
    ):
        return cached
    compiled = CompiledCircuit(circuit)
    circuit._compiled_cache = compiled
    return compiled
