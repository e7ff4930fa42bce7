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

Candidates come from the shared shortlist core
(:func:`repro.phys.geometry.shortlist`), the same ranking the greedy
attack walks, and the feature columns are gathered for all selected
pairs at once.  Every value is bit-identical to the historical
per-pair scalar loop, which the tests keep as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.phys.geometry import (
    ALIGN_TOL_UM as _ALIGN_TOL_UM,
    _cache_token,
    score_pairs,
    shortlist,
    stub_arrays,
)
from repro.phys.split import FeolView, SinkStub, SourceStub

#: Column order of the feature matrix.
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

    The greedy proximity attack's shortlist: one (best) branch stub per
    candidate net, ties broken by stub id for determinism.  Key pins
    then take every TIE source of another owner and a new net, in
    ``(score, index)`` order, regardless of distance.
    """
    sinks = list(view.sink_stubs)
    sources = list(view.source_stubs)
    arrays = stub_arrays(view)
    ranked = shortlist(view, per_sink)
    src_owner = arrays.source_owner.tolist()
    src_net = arrays.source_net.tolist()
    index = ranked.index.tolist()
    starts = ranked.starts.tolist()
    ties = ranked.tie_index.tolist()
    tie_rows = iter(ranked.tie_score.tolist())
    per: list[list[int]] = []
    for sink, (owner, escape) in enumerate(
        zip(arrays.sink_owner.tolist(), arrays.sink_has_escape.tolist())
    ):
        chosen = index[starts[sink] : starts[sink + 1]]
        if not escape:
            seen = {src_net[source] for source in chosen}
            for _, source in sorted(zip(next(tie_rows), ties)):
                if src_owner[source] != owner and src_net[source] not in seen:
                    seen.add(src_net[source])
                    chosen.append(source)
        per.append(chosen)
    return sinks, sources, per


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

    counts = [len(chosen) for chosen in per]
    total = sum(counts)
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
        [math.log1p(count) for count in range(branches.max(initial=0) + 1)],
        dtype=np.float64,
    )
    features = np.empty((total, len(FEATURE_NAMES)), dtype=np.float64)
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
