"""FEOL feature extraction for candidate (source, sink) pairs.

Both new attack engines — the min-cost network-flow matcher and the
learned proximity scorer — consume the same candidate structure: for
every broken sink pin, the K most plausible source stubs (one branch
stub per candidate net, exactly like the greedy attack's generation),
plus every TIE source for key pins (the attacker recognises key pins
from the FEOL and knows only TIE cells drive them).

Each pair carries a NumPy feature vector of FEOL-observable quantities
only — positions, dangling-wire directions, breakage modes, cell types,
fanout branch counts — never the ground-truth net identity.  Distances
are normalised by the stub bounding-box diagonal so feature scales are
comparable across floorplans of very different sizes (the learned
scorer trains on small self-generated layouts and attacks big ones).

Candidate generation and the feature matrix run on the shared array
geometry core (:mod:`repro.phys.geometry`): scores for a whole block
of sinks are one broadcast evaluation, the per-sink ranking is one
stable argsort, and the feature columns are gathered for all selected
pairs at once.  Every value is bit-identical to the historical
per-pair scalar loop (:func:`_pair_features` remains as the reference
oracle for the differential tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.attacks.hints import proximity_score
from repro.phys.geometry import (
    ALIGN_TOL_UM as _ALIGN_TOL_UM,
    _cache_token,
    block_size_for,
    candidate_order,
    score_block,
    score_pairs,
    stub_arrays,
)
from repro.phys.split import FeolView, SinkStub, SourceStub

#: Column order of the feature matrix (kept in sync with _pair_features).
FEATURE_NAMES: tuple[str, ...] = (
    "dist",          # euclidean distance / span
    "dx",            # |x_src - x_sink| / span
    "dy",            # |y_src - y_sink| / span
    "trunk_pair",    # both stubs are trunk-missing (axis 'x')
    "row_aligned",   # trunk pair sharing a row (the strongest hint)
    "mode_mismatch", # breakage modes disagree (extra BEOL jog needed)
    "source_is_tie", # TIE-cell driver (recognisable in the FEOL)
    "sink_is_key",   # key pin: pure via stack, no escape
    "branch_count",  # log1p(#branch stubs of the candidate net)
    "hand_score",    # the hand-crafted composite score / span
)

@dataclass
class CandidateSet:
    """All scored candidate pairs of one FEOL view.

    ``per_sink[i]`` lists indices into ``sources`` for ``sinks[i]``, in
    ascending hand-score order; ``pairs`` flattens the same structure to
    ``(P, 2)`` rows of ``(sink_index, source_index)``; ``features`` is
    the aligned ``(P, len(FEATURE_NAMES))`` matrix.  ``labels`` (only
    materialised for training views) marks pairs whose candidate net is
    the true driver.  It holds no reference to its view, which memoises
    it (``_candidates``): no cycle keeps a dropped view alive until the
    cyclic collector runs.
    """

    sinks: list[SinkStub]
    sources: list[SourceStub]
    per_sink: list[list[int]]
    pairs: np.ndarray
    features: np.ndarray
    labels: np.ndarray | None = None
    span: float = 1.0
    _net_of_source: list[str] = field(default_factory=list)

    @property
    def num_pairs(self) -> int:
        return int(self.pairs.shape[0])

    def source_net(self, source_index: int) -> str:
        return self._net_of_source[source_index]


def coordinate_span(view: FeolView) -> float:
    """Bounding-box diagonal of all stub endpoints (>= 1.0)."""
    arrays = stub_arrays(view)
    if arrays.num_sources + arrays.num_sinks == 0:
        return 1.0
    xs = np.concatenate([arrays.source_x, arrays.sink_x])
    ys = np.concatenate([arrays.source_y, arrays.sink_y])
    return max(
        1.0,
        math.hypot(
            float(xs.max()) - float(xs.min()),
            float(ys.max()) - float(ys.min()),
        ),
    )


def candidate_sources(
    view: FeolView, per_sink: int = 16
) -> tuple[list[SinkStub], list[SourceStub], list[list[int]]]:
    """The K best candidate sources per sink, hand-score ordered.

    Generation matches the greedy proximity attack: one (best) branch
    stub per candidate net, ties broken by stub id for determinism, and
    every TIE source appended for key pins regardless of distance.
    """
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


def _pair_features(
    source: SourceStub,
    sink: SinkStub,
    span: float,
    branch_count: int,
) -> tuple[float, ...]:
    """Scalar reference for one pair's feature row.

    Kept as the oracle the differential tests compare the broadcast
    feature matrix against — not used on the hot path.
    """
    dx = abs(source.x - sink.x)
    dy = abs(source.y - sink.y)
    trunk_pair = source.trunk_axis == "x" and sink.trunk_axis == "x"
    return (
        math.hypot(dx, dy) / span,
        dx / span,
        dy / span,
        1.0 if trunk_pair else 0.0,
        1.0 if trunk_pair and dy <= _ALIGN_TOL_UM else 0.0,
        1.0 if source.trunk_axis != sink.trunk_axis else 0.0,
        1.0 if source.is_tie else 0.0,
        0.0 if sink.has_escape else 1.0,
        math.log1p(branch_count),
        proximity_score(source, sink) / span,
    )


def build_candidates(
    view: FeolView, per_sink: int = 16, with_labels: bool = False
) -> CandidateSet:
    """Candidates + features (+ ground-truth labels) for *view*, memoised.

    The set is built once per view and argument pair and kept on the
    view (``_candidates``), so the netflow, learned and oracle-key cells
    of one view share it.  The memo is keyed by the stub arrays' cache
    token (:func:`repro.phys.geometry._cache_token`): a defense-style
    stub-list reassignment rebuilds it.  Callers share the set, so its
    arrays are read-only.  ``FeolView`` pickles drop the memo, as they
    drop the stub arrays.
    """
    token = _cache_token(view)
    cached = getattr(view, "_candidates", None)
    if cached is None or cached[0] != token:
        cached = view._candidates = (token, {})
    key = (per_sink, with_labels)
    candidates = cached[1].get(key)
    if candidates is None:
        candidates = cached[1][key] = _build_candidates(
            view, per_sink, with_labels
        )
        for array in (
            candidates.pairs,
            candidates.features,
            candidates.labels,
        ):
            if array is not None:
                array.flags.writeable = False
    return candidates


def _build_candidates(
    view: FeolView, per_sink: int, with_labels: bool
) -> CandidateSet:
    sinks, sources, per = candidate_sources(view, per_sink=per_sink)
    span = coordinate_span(view)
    arrays = stub_arrays(view)

    width = len(FEATURE_NAMES)
    counts = [len(chosen) for chosen in per]
    total = sum(counts)
    if total == 0:
        pairs = np.empty((0, 2), dtype=np.intp)
        features = np.empty((0, width), dtype=np.float64)
        labels = np.empty(0, dtype=np.float64) if with_labels else None
        return CandidateSet(
            sinks=sinks,
            sources=sources,
            per_sink=per,
            pairs=pairs,
            features=features,
            labels=labels,
            span=span,
            _net_of_source=[s.net for s in sources],
        )

    sink_index = np.repeat(np.arange(len(per), dtype=np.intp), counts)
    source_index = np.fromiter(
        (index for chosen in per for index in chosen),
        dtype=np.intp,
        count=total,
    )
    dx, dy, dist, score = score_pairs(arrays, sink_index, source_index)
    trunk_pair = (
        arrays.source_trunk_x[source_index]
        & arrays.sink_trunk_x[sink_index]
    )
    mode_mismatch = (
        arrays.source_trunk_x[source_index]
        != arrays.sink_trunk_x[sink_index]
    )
    # log1p over the small integer branch counts goes through a lookup
    # so every entry is exactly math.log1p (np.log1p disagrees by ulps).
    branches = np.bincount(arrays.source_net, minlength=len(arrays.nets))
    log1p_table = np.array(
        [math.log1p(value) for value in range(int(branches.max()) + 1)],
        dtype=np.float64,
    )
    features = np.empty((total, width), dtype=np.float64)
    features[:, 0] = dist / span
    features[:, 1] = dx / span
    features[:, 2] = dy / span
    features[:, 3] = trunk_pair
    features[:, 4] = trunk_pair & (dy <= _ALIGN_TOL_UM)
    features[:, 5] = mode_mismatch
    features[:, 6] = arrays.source_is_tie[source_index]
    features[:, 7] = ~arrays.sink_has_escape[sink_index]
    features[:, 8] = log1p_table[branches[arrays.source_net[source_index]]]
    features[:, 9] = score / span

    pairs = np.stack([sink_index, source_index], axis=1)
    labels = None
    if with_labels:
        labels = (
            arrays.source_net[source_index]
            == arrays.sink_net[sink_index]
        ).astype(np.float64)
    return CandidateSet(
        sinks=sinks,
        sources=sources,
        per_sink=per,
        pairs=pairs,
        features=features,
        labels=labels,
        span=span,
        _net_of_source=[s.net for s in sources],
    )
