"""Reference candidate walks: full exact rows, ranked and walked per sink.

These are the two walks the proximity attack and the candidate builder
shipped with before they shared :func:`repro.phys.geometry.shortlist`.
Each scores every source for every sink exactly, ranks whole rows with a
stable argsort and walks them in Python.  They are kept as the oracle
the shortlist identity tests compare against:

* :func:`reference_heap` — the proximity attack's candidate heap
  entries in push order (what
  :func:`repro.attacks.proximity.candidate_heap` returns);
* :func:`reference_candidate_sources` — the candidate builder's
  ``(sinks, sources, per_sink)`` (what
  :func:`repro.adversary.features.candidate_sources` returns).

:func:`proximity_score` is the scalar hint-1/2 score of one pair, and
:func:`pair_features` the scalar reference for one row of the candidate
builder's feature matrix.
"""

from __future__ import annotations

import math

import numpy as np

from repro.phys.geometry import (
    ALIGN_TOL_UM,
    MODE_MISMATCH_PENALTY,
    ROW_MISMATCH_PENALTY,
    block_size_for,
    score_block,
    stub_arrays,
)
from repro.phys.split import FeolView, SinkStub, SourceStub


def proximity_score(source: SourceStub, sink: SinkStub) -> float:
    """Composite proximity/direction score (lower = more plausible).

    Trunk-missing pairs whose dangling ends share a row only need the
    missing horizontal trunk — the strongest hint the FEOL offers; they
    are scored by the trunk length alone.  Pairs with mismatched breakage
    modes or rows would require extra BEOL jogs a timing-driven router
    would not have produced, so they are penalised.
    """
    dx = abs(source.x - sink.x)
    dy = abs(source.y - sink.y)
    if source.trunk_axis == "x" and sink.trunk_axis == "x":
        if dy <= ALIGN_TOL_UM:
            return dx
        return ROW_MISMATCH_PENALTY + math.hypot(dx, dy)
    if source.trunk_axis != sink.trunk_axis:
        return MODE_MISMATCH_PENALTY + math.hypot(dx, dy)
    return math.hypot(dx, dy)


def candidate_order(scores: np.ndarray) -> np.ndarray:
    """Per-sink source ranking of one score block.

    Row *i* lists source indices by ascending score; equal scores keep
    source-index order, which equals stub-id order.  Owner-equal pairs
    are *not* filtered here; the walks skip them.
    """
    return np.argsort(scores, axis=1, kind="stable")


def reference_heap(
    view: FeolView, per_sink: int
) -> list[tuple[float, int, int, int]]:
    """The proximity attack's ``(score, order, sink id, source id)`` pushes."""
    sources = list(view.source_stubs)
    sinks = list(view.sink_stubs)
    arrays = stub_arrays(view)
    src_owner = arrays.source_owner.tolist()
    source_nets = [s.net for s in sources]
    src_ids = arrays.source_stub_id.tolist()
    heap: list[tuple[float, int, int, int]] = []
    order = 0
    block = block_size_for(arrays)
    for start in range(0, len(sinks), block):
        stop = min(start + block, len(sinks))
        scores = score_block(arrays, start, stop)
        ranked_rows = candidate_order(scores).tolist()
        score_rows = scores.tolist()
        for local in range(stop - start):
            sink = sinks[start + local]
            owner = int(arrays.sink_owner[start + local])
            score_row = score_rows[local]
            seen_nets: set[str] = set()
            pushed = 0
            for index in ranked_rows[local]:
                if src_owner[index] == owner:
                    continue
                net = source_nets[index]
                if net in seen_nets:
                    continue  # one (best) branch per candidate net
                seen_nets.add(net)
                heap.append(
                    (score_row[index], order, sink.stub_id, src_ids[index])
                )
                order += 1
                pushed += 1
                if pushed >= per_sink:
                    break
            if not sink.has_escape:
                for index, src in enumerate(sources):
                    if src.is_tie and src.net not in seen_nets:
                        heap.append(
                            (score_row[index], order, sink.stub_id, src.stub_id)
                        )
                        order += 1
    return heap


def reference_candidate_sources(view: FeolView, per_sink: int = 16):
    """The candidate builder's ``(sinks, sources, per_sink)`` lists."""
    sinks = list(view.sink_stubs)
    sources = list(view.source_stubs)
    per: list[list[int]] = []
    if not sinks:
        return sinks, sources, per
    if not sources:
        return sinks, sources, [[] for _ in sinks]
    arrays = stub_arrays(view)
    src_owner = arrays.source_owner.tolist()
    src_net = arrays.source_net.tolist()
    src_tie = arrays.source_is_tie.tolist()
    snk_owner = arrays.sink_owner.tolist()
    snk_escape = arrays.sink_has_escape.tolist()
    block = block_size_for(arrays)
    for start in range(0, len(sinks), block):
        stop = min(start + block, len(sinks))
        ranked_rows = candidate_order(score_block(arrays, start, stop))
        for local, row in enumerate(ranked_rows.tolist()):
            sink_index = start + local
            owner = snk_owner[sink_index]
            seen_nets: set[int] = set()
            chosen: list[int] = []
            for index in row:
                if src_owner[index] == owner:
                    continue
                net = src_net[index]
                if net in seen_nets:
                    continue
                seen_nets.add(net)
                chosen.append(index)
                if len(chosen) >= per_sink:
                    break
            if not snk_escape[sink_index]:
                for index in row:
                    if src_owner[index] == owner:
                        continue
                    if src_tie[index] and src_net[index] not in seen_nets:
                        seen_nets.add(src_net[index])
                        chosen.append(index)
            per.append(chosen)
    return sinks, sources, per


def pair_features(
    source: SourceStub,
    sink: SinkStub,
    span: float,
    branch_count: int,
) -> tuple[float, ...]:
    """Scalar reference for one pair's feature row (``FEATURE_NAMES``)."""
    dx = abs(source.x - sink.x)
    dy = abs(source.y - sink.y)
    trunk_pair = source.trunk_axis == "x" and sink.trunk_axis == "x"
    return (
        math.hypot(dx, dy) / span,
        dx / span,
        dy / span,
        1.0 if trunk_pair else 0.0,
        1.0 if trunk_pair and dy <= ALIGN_TOL_UM else 0.0,
        1.0 if source.trunk_axis != sink.trunk_axis else 0.0,
        1.0 if source.is_tie else 0.0,
        0.0 if sink.has_escape else 1.0,
        math.log1p(branch_count),
        proximity_score(source, sink) / span,
    )
