"""Array-native FEOL stub geometry shared by every pairwise consumer.

The greedy proximity attack (:mod:`repro.attacks.proximity`), the
candidate/feature builder (:mod:`repro.adversary.features`) and the
flow matcher's cost vectors (:mod:`repro.adversary.netflow`) all need
the same source/sink pairwise quantities.  This module computes them
once, on contiguous NumPy arrays:

* :func:`stub_arrays` exposes a :class:`FeolView`'s stub coordinates
  and attributes as flat arrays (cached on the view; the compiled
  split engine pre-fills them at split time for free),
* :func:`score_block` and :func:`score_pairs` evaluate the hint-1/2
  composite proximity score for a ``sinks x sources`` block or for
  explicit pairs,
* :func:`shortlist` is the one candidate walk both attacks rank with:
  per sink, the best ``per_sink`` sources (one branch per net, the
  sink's own owner skipped) plus the TIE sources key pins may take.

Everything here is **bit-identical** to the scalar per-pair reference
the tests keep (``proximity_score``) — the attack pipeline's
golden metrics are pinned exactly, so "vectorized" must never mean
"close".  The one trap is ``hypot``: ``np.hypot`` disagrees with
``math.hypot`` by 1 ulp on ~0.6% of inputs (CPython ships its own
correctly-rounded implementation; the C library's differs).  Every
score a consumer sees goes through :func:`exact_hypot`; approximate
distances only pre-screen the shortlist, with a margin far wider than
an ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.phys.split import FeolView

#: Row tolerance for trunk alignment; mirrors ``repro.attacks.hints``.
ALIGN_TOL_UM = 0.75

#: Penalty for candidate pairs whose FEOL breakage modes disagree.
MODE_MISMATCH_PENALTY = 25.0

#: Penalty for trunk-type pairs on different rows (extra BEOL jog).
ROW_MISMATCH_PENALTY = 40.0


def exact_hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Elementwise Euclidean distance, bit-identical to ``math.hypot``.

    ``np.hypot`` is *not* reproducible against the scalar reference
    (1-ulp disagreements), and pinned attack metrics ride on exact
    score ordering — so every score a ranking reads calls
    ``math.hypot`` per element.  ``map`` keeps the loop in C apart
    from the call itself; it is ~6x slower than the ufunc, which is
    why :func:`shortlist` calls it only on each sink's shortlist.
    """
    dx = np.ascontiguousarray(dx, dtype=np.float64)
    dy = np.ascontiguousarray(dy, dtype=np.float64)
    flat = np.fromiter(
        map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist()),
        dtype=np.float64,
        count=dx.size,
    )
    return flat.reshape(dx.shape)


@dataclass
class StubArrays:
    """Contiguous-array view of one FEOL view's stubs.

    ``owners`` is one shared vocabulary for source and sink owners so
    the self-pair exclusion (``src.owner != sink.owner``) is an integer
    compare; ``nets`` likewise backs the per-net candidate dedupe and
    the ground-truth labels.  Stub lists are emitted in ascending
    ``stub_id`` order by both split engines, so positional index order
    equals stub-id order on each side — the tie-break every scalar
    sort relied on.
    """

    source_x: np.ndarray
    source_y: np.ndarray
    source_is_tie: np.ndarray
    source_trunk_x: np.ndarray
    source_stub_id: np.ndarray
    source_owner: np.ndarray
    source_net: np.ndarray
    sink_x: np.ndarray
    sink_y: np.ndarray
    sink_has_escape: np.ndarray
    sink_trunk_x: np.ndarray
    sink_stub_id: np.ndarray
    sink_owner: np.ndarray
    sink_net: np.ndarray
    owners: list[str]
    nets: list[str]

    @property
    def num_sources(self) -> int:
        return int(self.source_x.shape[0])

    @property
    def num_sinks(self) -> int:
        return int(self.sink_x.shape[0])


def _cache_token(view: "FeolView") -> tuple:
    """Cheap mutation fingerprint of a view's stub lists.

    The defenses (routing perturbation, wire lifting) rebuild or
    reassign the stub lists of an existing view; the cached arrays must
    not survive that.  ``FeolView.__setattr__`` bumps a version
    counter on every stub-list reassignment, and the lengths catch
    in-place appends — deterministic invalidation, no reliance on
    object identity (which the allocator can recycle).  In-place
    element replacement of an existing list is the one unsupported
    pattern; nothing in the tree does it.
    """
    return (
        getattr(view, "_stub_version", 0),
        len(view.source_stubs),
        len(view.sink_stubs),
    )


def stub_arrays(view: "FeolView") -> StubArrays:
    """The cached :class:`StubArrays` of *view* (built on first use)."""
    cached = getattr(view, "_stub_arrays", None)
    token = _cache_token(view)
    if cached is not None and cached[0] == token:
        return cached[1]
    # Vocabulary ids in first-seen order: sources, then sinks.
    owners: dict[str, int] = {}
    nets: dict[str, int] = {}

    def column(stubs, value, dtype) -> np.ndarray:
        return np.array([value(stub) for stub in stubs], dtype=dtype)

    def side(prefix: str, stubs, flag: str) -> dict[str, np.ndarray]:
        """One side's columns; *flag* is ``is_tie`` or ``has_escape``."""
        return {
            f"{prefix}_{name}": column(stubs, value, dtype)
            for name, value, dtype in (
                ("x", attrgetter("x"), np.float64),
                ("y", attrgetter("y"), np.float64),
                (flag, attrgetter(flag), bool),
                ("trunk_x", lambda s: s.trunk_axis == "x", bool),
                ("stub_id", attrgetter("stub_id"), np.intp),
                ("owner", lambda s: owners.setdefault(s.owner, len(owners)), np.intp),
                ("net", lambda s: nets.setdefault(s.net, len(nets)), np.intp),
            )
        }

    arrays = StubArrays(
        **side("source", view.source_stubs, "is_tie"),
        **side("sink", view.sink_stubs, "has_escape"),
        owners=list(owners),
        nets=list(nets),
    )
    view._stub_arrays = (token, arrays)
    return arrays


def _composite(
    source_trunk_x: np.ndarray, sink_trunk_x: np.ndarray,
    dx: np.ndarray, dy: np.ndarray, dist: np.ndarray,
) -> np.ndarray:
    """The hint-1/2 composite score from broadcastable pair operands.

    Trunk-missing pairs whose dangling ends share a row only need the
    missing horizontal trunk — the strongest hint the FEOL offers — and
    score its length; pairs with mismatched breakage modes or rows would
    need extra BEOL jogs, so they are penalised.  Lower is more
    plausible.
    """
    mode_mismatch = source_trunk_x != sink_trunk_x
    return np.where(
        source_trunk_x & sink_trunk_x,
        np.where(dy <= ALIGN_TOL_UM, dx, ROW_MISMATCH_PENALTY + dist),
        np.where(mode_mismatch, MODE_MISMATCH_PENALTY + dist, dist),
    )


def score_pairs(
    arrays: StubArrays, sink_index: np.ndarray, source_index: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(dx, dy, dist, score)`` for ``(sink, source)`` index pairs.

    The indices broadcast, so a column of sinks against a row of
    sources scores a whole block.
    """
    dx = np.abs(arrays.source_x[source_index] - arrays.sink_x[sink_index])
    dy = np.abs(arrays.source_y[source_index] - arrays.sink_y[sink_index])
    dist = exact_hypot(dx, dy)
    source_trunk = arrays.source_trunk_x[source_index]
    sink_trunk = arrays.sink_trunk_x[sink_index]
    return dx, dy, dist, _composite(source_trunk, sink_trunk, dx, dy, dist)


def score_block(
    arrays: StubArrays, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """Exact scores of sinks ``start:stop`` (rows) x all sources."""
    stop = arrays.num_sinks if stop is None else stop
    sinks = np.arange(start, stop)[:, None]
    return score_pairs(arrays, sinks, np.arange(arrays.num_sources))[3]


def ranked_row(arrays: StubArrays, sink: int) -> np.ndarray:
    """Every source index for *sink* in exact ``(score, index)`` order."""
    return np.argsort(score_block(arrays, sink, sink + 1)[0], kind="stable")


#: Soft cap on one block's footprint (~8 MB per float64 matrix); keeps
#: huge views out of swap.
_BLOCK_ELEMENTS = 1_000_000


def block_size_for(arrays: StubArrays) -> int:
    """Sinks per block so one block stays within the footprint cap."""
    if arrays.num_sources == 0:
        return max(1, arrays.num_sinks)
    return max(1, _BLOCK_ELEMENTS // arrays.num_sources)


def shortlist_width(per_sink: int) -> int:
    """Sources each sink's shortlist pre-screens (see :func:`shortlist`)."""
    return 3 * per_sink + 8


#: Relative (and absolute, in um) slack on the pre-screen's cut: far
#: wider than the few ulps (~1e-15 relative) by which the approximate
#: scores of :func:`_prescreen` can miss the exact ones.
_CUT_MARGIN = 1e-9


@dataclass
class Shortlist:
    """Each sink's ranked candidate sources, as flat read-only arrays.

    Sink *i*'s candidates are ``index[starts[i]:starts[i + 1]]``, with
    exact scores in ``score``, in ``(score, source index)`` order: the
    walk of the sink's full ranking that skips its own owner, keeps one
    (best) branch per net and stops at ``per_sink``.  Key pins (sinks
    with no escape) may also take TIE sources: ``tie_score[k, t]`` is
    the exact score of the *k*-th key pin (in sink order) against
    source ``tie_index[t]``.  The two attacks filter and order those
    differently, so they do it themselves.
    """

    starts: np.ndarray
    index: np.ndarray
    score: np.ndarray
    tie_index: np.ndarray
    tie_score: np.ndarray


def shortlist(view: "FeolView", per_sink: int) -> Shortlist:
    """The :class:`Shortlist` of *view* for *per_sink*, memoised.

    Kept on the view (``_shortlists``) under the stub arrays' cache
    token, so the proximity attack and the candidate builder of one
    view rank its sources once.  ``FeolView`` pickles drop the memo.
    """
    token = _cache_token(view)
    cached = getattr(view, "_shortlists", None)
    if cached is None or cached[0] != token:
        cached = view._shortlists = (token, {})
    ranked = cached[1].get(per_sink)
    if ranked is None:
        ranked = cached[1][per_sink] = _build_shortlist(
            stub_arrays(view), per_sink
        )
        for array in vars(ranked).values():
            array.flags.writeable = False
    return ranked


def _build_shortlist(arrays: StubArrays, per_sink: int) -> Shortlist:
    cap = max(1, per_sink)
    width = min(shortlist_width(per_sink), arrays.num_sources)
    parts = [(np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),)]
    block = block_size_for(arrays)
    for start in range(0, arrays.num_sinks if width else 0, block):
        sinks = np.arange(start, min(start + block, arrays.num_sinks))
        row, col, score, stale = _rank(arrays, sinks, width, cap)
        fresh = ~np.isin(row, stale)
        parts.append((row[fresh], col[fresh], score[fresh]))
        if stale.size:
            parts.append(_rank(arrays, stale, arrays.num_sources, cap)[:3])
    row, col, score = (np.concatenate(part) for part in zip(*parts))
    order = np.argsort(row, kind="stable")  # each sink comes from one part
    starts = np.zeros(arrays.num_sinks + 1, dtype=np.intp)
    np.cumsum(np.bincount(row, minlength=arrays.num_sinks), out=starts[1:])
    tie_index = np.flatnonzero(arrays.source_is_tie)
    key_sinks = np.flatnonzero(~arrays.sink_has_escape)
    return Shortlist(
        starts=starts,
        index=col[order],
        score=score[order],
        tie_index=tie_index,
        tie_score=score_pairs(arrays, key_sinks[:, None], tie_index)[3],
    )


def _rank(
    arrays: StubArrays, sinks: np.ndarray, width: int, cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Walk the rankings of *sinks* on a pre-screened shortlist.

    Approximate scores (:func:`_prescreen`) pick each sink's *width*
    nearest sources (``np.partition``) plus every source within
    :data:`_CUT_MARGIN` of that cut; only those get exact scores and
    the stable ``(score, index)`` sort.  Every source left out scores
    strictly above all of the *width* nearest, so the first *width*
    entries of a sink's shortlist are those of its full ranking: the
    trusted prefix.  Returns the ``(sink, source, score)`` entries the
    walk took, and the stale sinks, whose walk did not stop inside the
    trusted prefix (*width* equal to the source count makes none).
    """
    approx = _prescreen(arrays, sinks)
    cut = np.partition(approx, width - 1, axis=1)[:, width - 1]
    local, col = np.nonzero(
        approx <= (cut * (1.0 + _CUT_MARGIN) + _CUT_MARGIN)[:, None]
    )
    del approx
    score = score_pairs(arrays, sinks[local], col)[3]
    order = np.lexsort((col, score, local))
    local, col, score = local[order], col[order], score[order]
    row = sinks[local]
    chosen, position = _walk(arrays, row, col, cap)
    # Stale: took fewer than *cap* or took one at or past *width*,
    # unless the shortlist kept every source (then it is the full row).
    count = len(sinks)
    full = np.bincount(local, minlength=count) == arrays.num_sources
    taken = np.bincount(local[chosen], minlength=count)
    late = np.bincount(local[chosen & (position >= width)], minlength=count)
    stale = sinks[~full & ((taken < cap) | (late > 0))]
    return row[chosen], col[chosen], score[chosen], stale


def _prescreen(arrays: StubArrays, sinks: np.ndarray) -> np.ndarray:
    """Approximate scores of *sinks* (rows) x all sources.

    :func:`score_pairs`' composite with ``sqrt(dx*dx + dy*dy)`` for the
    distance, computed in place.  ``dx``, ``dy`` and the row-alignment
    test are exact; the distance is within a few ulps of ``math.hypot``
    (stub coordinates neither overflow nor underflow), and the penalty
    add rounds once more.
    """
    dx = arrays.source_x[None, :] - arrays.sink_x[sinks, None]
    dy = arrays.source_y[None, :] - arrays.sink_y[sinks, None]
    np.abs(dx, out=dx)
    np.abs(dy, out=dy)
    approx = np.multiply(dx, dx)
    approx += np.square(dy)
    np.sqrt(approx, out=approx)
    source_trunk = arrays.source_trunk_x
    sink_trunk = arrays.sink_trunk_x[sinks]
    # Penalty by (sink is trunk, source is trunk): none, mode mismatch,
    # or a misaligned trunk pair.
    penalty = np.where(
        source_trunk,
        [[MODE_MISMATCH_PENALTY], [ROW_MISMATCH_PENALTY]],
        [[0.0], [MODE_MISMATCH_PENALTY]],
    )
    approx += penalty[sink_trunk.astype(np.intp)]
    aligned = dy <= ALIGN_TOL_UM
    aligned &= sink_trunk[:, None] & source_trunk[None, :]
    np.copyto(approx, dx, where=aligned)
    return approx


def _walk(
    arrays: StubArrays, row: np.ndarray, col: np.ndarray, cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """The candidate walk over ranked ``(sink, source)`` entries.

    *row* groups the entries by sink, ranked within each group.  Per
    sink, the walk skips sources of the sink's own owner and every
    later branch of a net already taken, and takes at most *cap*.
    Returns ``(chosen, position)``: the entries taken, and each
    entry's position within its sink's ranking.
    """
    chosen = arrays.source_owner[col] != arrays.sink_owner[row]
    live = np.flatnonzero(chosen)
    # np.unique's return_index is a stable sort's: first occurrences.
    _, first = np.unique(
        row[live] * len(arrays.nets) + arrays.source_net[col[live]],
        return_index=True,
    )
    chosen[live] = False
    chosen[live[first]] = True
    head = np.searchsorted(row, row)
    before = np.cumsum(chosen) - chosen
    chosen &= before - before[head] < cap
    return chosen, np.arange(row.size) - head
