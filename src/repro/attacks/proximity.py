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

import heapq
import random
from dataclasses import asdict, dataclass

import numpy as np

from repro.attacks.hints import (
    Reachability,
    build_context,
    creates_loop,
    load_allows,
    timing_allows,
)
from repro.attacks.result import AttackResult
from repro.phys.geometry import (
    block_size_for,
    candidate_order,
    score_block,
    stub_arrays,
)
from repro.phys.split import FeolView


@dataclass(frozen=True)
class ProximityAttackConfig:
    """Attack knobs (defaults follow the published attack's spirit)."""

    candidates_per_sink: int = 16
    load_limit: int = 5
    slack_factor: float = 1.3
    seed: int = 7
    use_loop_hint: bool = True
    use_timing_hint: bool = True
    use_load_hint: bool = True


def proximity_attack(
    view: FeolView, config: ProximityAttackConfig | None = None
) -> AttackResult:
    """Run the proximity attack on *view*; returns the full assignment."""
    config = config or ProximityAttackConfig()
    rng = random.Random(config.seed)
    context = build_context(view, load_limit=config.load_limit)

    sources = list(view.source_stubs)
    sinks = list(view.sink_stubs)
    source_by_id = {s.stub_id: s for s in sources}

    # Candidate generation: the K best-scoring sources per sink (branch
    # stubs of one net count separately).  Key-gate pins (no escape)
    # additionally consider every TIE source — the attacker knows TIE
    # cells can only drive key-gates.  Scores and per-sink rankings come
    # from the shared array geometry core one block of sinks at a time;
    # the stable argsort reproduces the ``(score, stub_id)`` order of
    # the historical per-pair ``sorted`` exactly (source list order is
    # stub-id order), so heap contents are bit-identical to the scalar
    # path.
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
        score_rows = scores.score.tolist()
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
                heapq.heappush(
                    heap,
                    (score_row[index], order, sink.stub_id, src_ids[index]),
                )
                order += 1
                pushed += 1
                if pushed >= config.candidates_per_sink:
                    break
            if not sink.has_escape:
                for index, src in enumerate(sources):
                    if src.is_tie and src.net not in seen_nets:
                        heapq.heappush(
                            heap,
                            (
                                score_row[index],
                                order,
                                sink.stub_id,
                                src.stub_id,
                            ),
                        )
                        order += 1

    sink_by_id = {s.stub_id: s for s in sinks}
    assignment: dict[int, str] = {}
    load: dict[str, int] = {}
    reaches = initial_reachability(view)
    rejected = {"loop": 0, "timing": 0, "load": 0}

    while heap:
        dist, _, sink_id, src_id = heapq.heappop(heap)
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
    # complete, fabricable (acyclic) netlist.  Rankings are recomputed
    # per leftover sink (there are few) from the shared score core; the
    # stable argsort equals the stable ``sorted``-by-score it replaces.
    for sink_index, sink in enumerate(sinks):
        if sink.stub_id in assignment:
            continue
        row = candidate_order(
            score_block(arrays, sink_index, sink_index + 1)
        )[0]
        owner = int(arrays.sink_owner[sink_index])
        for index in row.tolist():
            if src_owner[index] == owner:
                continue
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
    del rng  # reserved for future stochastic tie-breaking
    return result


def initial_reachability(view: FeolView) -> Reachability:
    """gate -> gates reachable from it through FEOL-visible edges.

    Used by the loop hint; updated incrementally as edges are committed.
    A DFF's row starts empty and no row starts with a DFF in it: the
    walk stops at flip-flops, which only committed edges cross.
    """
    from repro.attacks.hints import _feol_skeleton

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
    packed = bytearray(b"".join(row.to_bytes(width, "little") for row in rows))
    bits = np.frombuffer(packed, dtype="<u8").reshape(len(rows), width // 8)
    return Reachability(index, bits)


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
