"""The proximity attack on split layouts (Wang et al., TVLSI'18 style).

Greedy global matching over dangling-wire endpoints: all candidate
(source, sink) pairs are ranked by proximity (hints 1-2), and the closest
feasible pair is committed first.  Feasibility applies the remaining
hints — driver load (3), combinational-loop avoidance (4) and timing
plausibility (5).  TIE-cell sources are exempt from hints 3-5, exactly as
the paper's proof outline argues; the point of the evaluation is that
this exemption does not help, because randomized TIE placement plus
fully-lifted key-nets leave hint 1-2 carrying no signal for key-nets.

The paper's customization (Sec. IV-A) is implemented in
:mod:`repro.attacks.postprocess`: key-gate pins that ended up matched to
a regular driver are re-connected to a random TIE cell.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.attacks.hints import (
    Reachability,
    _feol_skeleton,
    build_context,
    creates_loop,
    load_allows,
    timing_allows,
)
from repro.attacks.result import AttackResult
from repro.netlist.circuit import Circuit
from repro.phys.geometry import _cache_token, ranked_row, shortlist, stub_arrays
from repro.phys.split import FeolView


@dataclass(frozen=True)
class ProximityAttackConfig:
    """Attack knobs (defaults follow the published attack's spirit)."""

    candidates_per_sink: int = 16
    load_limit: int = 5
    slack_factor: float = 1.3
    seed: int = 7  # unused by the attack; recorded in its diagnostics
    use_loop_hint: bool = True
    use_timing_hint: bool = True
    use_load_hint: bool = True


def proximity_attack(
    view: FeolView, config: ProximityAttackConfig | None = None
) -> AttackResult:
    """Run the proximity attack on *view*; returns the full assignment."""
    config = config or ProximityAttackConfig()
    # One skeleton serves the hints and, on a view's first attack, the
    # loop hint's reachability memo.
    skeleton = _feol_skeleton(view)
    context = build_context(view, load_limit=config.load_limit, skeleton=skeleton)

    sources = view.source_stubs
    sinks = view.sink_stubs
    source_by_id = {s.stub_id: s for s in sources}
    sink_by_id = {s.stub_id: s for s in sinks}
    assignment: dict[int, str] = {}
    load: dict[str, int] = {}
    reaches = initial_reachability(view, skeleton)
    rejected = {"loop": 0, "timing": 0, "load": 0}

    # Every candidate is known before the first commit, so popping a
    # heap of them equals walking them sorted (the order column makes
    # every entry distinct).
    for _, _, sink_id, src_id in sorted(candidate_heap(view, config)):
        if sink_id in assignment:
            continue
        sink = sink_by_id[sink_id]
        source = source_by_id[src_id]
        src_net = source.net
        if config.use_load_hint and not load_allows(
            context, source, load.get(src_net, 0)
        ):
            rejected["load"] += 1
            continue
        if config.use_loop_hint and creates_loop(reaches, source, sink):
            rejected["loop"] += 1
            continue
        if config.use_timing_hint and not timing_allows(
            context, source, sink, config.slack_factor
        ):
            rejected["timing"] += 1
            continue
        assignment[sink_id] = src_net
        load[src_net] = load.get(src_net, 0) + 1
        commit_edge(reaches, view, source, sink)

    # Any sink left (all its candidates rejected): nearest non-looping
    # source wins, other constraints relaxed — the attacker must produce a
    # complete, fabricable (acyclic) netlist.  Leftover sinks are few, so
    # each walks its full exact ranking.
    arrays = stub_arrays(view)
    for sink_index, sink in enumerate(sinks):
        if sink.stub_id in assignment:
            continue
        order = ranked_row(arrays, sink_index)
        owner = arrays.sink_owner[sink_index]
        for index in order[arrays.source_owner[order] != owner].tolist():
            source = sources[index]
            if creates_loop(reaches, source, sink):
                continue
            assignment[sink.stub_id] = source.net
            commit_edge(reaches, view, source, sink)
            break

    result = AttackResult(
        view,
        assignment,
        strategy="proximity",
        engine="proximity",
        netlist_name=f"{view.circuit_name}_recovered",
    )
    result.diagnostics["rejected"] = rejected
    result.diagnostics["config"] = asdict(config)
    return result


def candidate_heap(
    view: FeolView, config: ProximityAttackConfig
) -> list[tuple[float, int, int, int]]:
    """The candidate heap's entries ``(score, order, sink id, source id)``.

    Listed in push order.  Per sink, in sink order: the shortlist's
    ``candidates_per_sink`` best sources (branch stubs of one net count
    once), then, for a key pin (no escape), every TIE source of a net
    not yet listed, in source order — the attacker knows TIE cells can
    only drive key-gates.  *order* numbers the entries in that
    sequence, which breaks score ties.
    """
    arrays = stub_arrays(view)
    ranked = shortlist(view, config.candidates_per_sink)
    src_ids = arrays.source_stub_id.tolist()
    src_net = arrays.source_net.tolist()
    index = ranked.index.tolist()
    score = ranked.score.tolist()
    starts = ranked.starts.tolist()
    ties = ranked.tie_index.tolist()
    tie_rows = iter(ranked.tie_score.tolist())
    heap: list[tuple[float, int, int, int]] = []
    for sink, (sink_id, escape) in enumerate(
        zip(arrays.sink_stub_id.tolist(), arrays.sink_has_escape.tolist())
    ):
        chosen = index[starts[sink] : starts[sink + 1]]
        for value, source in zip(score[starts[sink] : starts[sink + 1]], chosen):
            heap.append((value, len(heap), sink_id, src_ids[source]))
        if not escape:
            seen = {src_net[source] for source in chosen}
            for value, source in zip(next(tie_rows), ties):
                if src_net[source] not in seen:
                    heap.append((value, len(heap), sink_id, src_ids[source]))
    return heap


def initial_reachability(
    view: FeolView, skeleton: Circuit | None = None
) -> Reachability:
    """gate -> gates reachable from it through FEOL-visible edges.

    Used by the loop hint; updated incrementally as edges are committed.
    A DFF's row starts empty and no row starts with a DFF in it: the
    walk stops at flip-flops, which only committed edges cross.  The
    relation is built once per view and kept on it (``_reachability``),
    keyed by the stub and netlist versions (``beol-restore`` swaps the
    gate table); each caller gets a private copy of the bits, which
    :func:`commit_edge` mutates.  ``FeolView`` pickles drop the memo.
    A build reads *skeleton*, the view's :func:`_feol_skeleton`, when
    the caller already has it.
    """
    token = (_cache_token(view), getattr(view, "_netlist_version", 0))
    cached = getattr(view, "_reachability", None)
    if cached is None or cached[0] != token:
        if skeleton is None:
            skeleton = _feol_skeleton(view)
        index = {name: i for i, name in enumerate(skeleton.gates)}
        rows = [0] * len(index)
        fanout = skeleton.fanout_map()
        for net in reversed(skeleton.topological_order()):
            if skeleton.gates[net].is_dff:
                continue
            acc = 1 << index[net]
            for reader in fanout[net]:
                if not skeleton.gates[reader].is_dff:
                    acc |= rows[index[reader]]
            rows[index[net]] = acc
        width = 8 * ((len(rows) + 63) // 64)
        packed = b"".join(row.to_bytes(width, "little") for row in rows)
        bits = np.frombuffer(packed, dtype="<u8").reshape(len(rows), width // 8)
        cached = view._reachability = (token, Reachability(index, bits))
    return Reachability(cached[1].index, cached[1].bits.copy())


def commit_edge(reaches: Reachability, view: FeolView, source, sink) -> None:
    """Record source -> sink in the incremental reachability relation.

    Every row that reaches the driver, and the driver's own, gains the
    sink's row plus the sink itself: one masked OR over those rows.
    """
    if sink.owner.startswith("PO:") or source.owner.startswith("PAD:"):
        return
    if source.is_tie:
        return
    driver = reaches.index.get(source.owner)
    row = reaches.index.get(sink.owner)
    if driver is None or row is None:
        return
    bits = reaches.bits
    downstream = bits[row].copy()
    downstream[row >> 6] |= np.uint64(1 << (row & 63))
    upstream = (bits[:, driver >> 6] & np.uint64(1 << (driver & 63))) != 0
    upstream[driver] = True
    bits[np.flatnonzero(upstream)] |= downstream
