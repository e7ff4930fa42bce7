"""Min-cost network-flow matching of broken FEOL connections.

The greedy proximity attack commits the globally closest feasible pair
first and never reconsiders; the network-flow adversary is strictly
stronger on hint 1-2 information: it builds a bipartite flow network —
driver nets with load capacities on one side, broken sink pins on the
other, candidate edges weighted by proximity cost — and extracts the
*globally* cheapest complete assignment (successive-shortest-path
min-cost flow with Johnson potentials).  This is the classic
network-flow formulation of split-manufacturing attacks (cf. Wang et
al.'s proximity-attack family and the survey's network-flow matchers).

The solver is tuned to the shape of these networks — hundreds of units
of flow, each one an augmenting path of a few arcs:

* **Early exit.**  Each augmentation's Dijkstra stops as soon as the
  sink ``t`` settles; only the nodes settled by then move their
  potential, each by ``dist[u] - dist[t]``, which keeps every residual
  reduced cost non-negative.
* **Residual adjacency.**  Dijkstra relaxes only arcs with capacity
  left: each node keeps the list of its residual arcs, updated in place
  along every augmenting path, so a matched sink pin offers one usable
  arc (back to its driver) instead of its whole candidate list.
* **Group memo.**  Inside :func:`shared_flow_matches` (entered once per
  sibling group by the grid compiler), equal matching instances — the
  netflow and oracle-key scenarios over one layout, or a cell repeated
  across grids — are solved once.

**Tie contract.**  The flow value and the optimal cost always equal
those of the textbook successive-shortest-path solver (full Dijkstra
per unit, kept in ``tests/test_netflow.py`` as the differential
oracle).  The early exit changes the potentials, so among several
*equal-cost* optimal matchings it may pick a different one; on
tie-free costs, and on every smoke and defense-matrix instance, the
matching itself is identical.

Combinational-loop avoidance (hint 4) is not expressible as flow
capacity, so it runs as a deterministic repair pass over the decoded
matching: loop-closing edges are re-routed to the sink's next-cheapest
loop-free candidate.

The module is engine-agnostic on purpose: :func:`flow_assignment` takes
any per-pair cost vector, so the learned scorer reuses the same
globally-optimal matcher with model-derived costs.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from repro.adversary.features import CandidateSet
from repro.attacks.hints import creates_loop
from repro.attacks.proximity import commit_edge, initial_reachability
from repro.phys.split import FeolView

#: Fixed-point scale for float costs; integer arc costs keep the
#: shortest-path tie-breaking exact and platform-independent.
COST_SCALE = 1024


class MinCostFlow:
    """Successive-shortest-path min-cost max-flow (integer costs >= 0)."""

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.graph: list[list[int]] = [[] for _ in range(num_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []

    def add_edge(self, u: int, v: int, cap: int, cost: int) -> int:
        """Add arc u->v; returns the arc index (reverse is index ^ 1).

        Costs must be non-negative: :meth:`solve` starts Dijkstra from
        zero potentials, so a negative arc would silently yield a
        non-optimal flow.
        """
        if cost < 0:
            raise ValueError(f"arc {u}->{v} has negative cost {cost}")
        index = len(self.to)
        self.graph[u].append(index)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.graph[v].append(index + 1)
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-cost)
        return index

    def solve(self, s: int, t: int, max_flow: int) -> tuple[int, int]:
        """Push up to *max_flow* units; returns (flow, total_cost).

        One Dijkstra over reduced costs per augmenting path, heap keyed
        ``(reduced dist, node)``.  It stops when *t* settles: with
        ``D = dist[t]``, each settled node's potential moves by
        ``dist[u] - D`` and every other potential stays, which keeps
        all residual reduced costs non-negative.  Relaxation walks a
        per-node list of the arcs with capacity left, maintained in
        place as the path's arcs saturate or gain reverse capacity.
        Saturated arcs (``cap == 0``) mark the chosen forward arcs.

        Flow and cost equal full-Dijkstra SSP's on every network; among
        several equal-cost optimal flows the one chosen may differ (see
        the module's tie contract).
        """
        to, cap, cost = self.to, self.cap, self.cost
        # residual[u] holds (arc, head, cost) for u's arcs with cap > 0;
        # slot[a] is a's index there, so removal swaps in the last one.
        entry = list(zip(range(len(to)), to, cost))
        residual = [
            [entry[a] for a in arcs if cap[a] > 0] for arcs in self.graph
        ]
        slot = [0] * len(to)
        for arcs in residual:
            for position, (a, _, _) in enumerate(arcs):
                slot[a] = position
        n = self.num_nodes
        potential = [0] * n
        unreached = float("inf")
        heappush, heappop = heapq.heappush, heapq.heappop
        flow = total_cost = 0
        while flow < max_flow:
            # label[v] = dist[v] + potential[v]: comparing labels compares
            # reduced distances without the per-arc potential lookup.
            label: list = [unreached] * n
            parent_edge = [-1] * n
            settled: list[int] = []
            label[s] = potential[s]
            heap: list[tuple[int, int]] = [(0, s)]
            while heap:
                d, u = heappop(heap)
                base = d + potential[u]
                if base > label[u]:
                    continue  # stale entry
                settled.append(u)
                if u == t:
                    break
                for a, v, c in residual[u]:
                    x = base + c
                    if x < label[v]:
                        label[v] = x
                        parent_edge[v] = a
                        heappush(heap, (x - potential[v], v))
            if label[t] == unreached:
                break  # no augmenting path: capacity exhausted
            # potential[u] + dist[u] - dist[t] for every settled node.
            reach = label[t] - potential[t]
            for u in settled:
                potential[u] = label[u] - reach
            # Bottleneck along the path (arc capacities here are >= 1).
            push = max_flow - flow
            v = t
            while v != s:
                a = parent_edge[v]
                push = min(push, cap[a])
                v = to[a ^ 1]
            v = t
            while v != s:
                a = parent_edge[v]
                back = a ^ 1
                cap[a] -= push
                if cap[a] == 0:
                    arcs = residual[to[back]]
                    last = arcs.pop()
                    if last[0] != a:
                        arcs[slot[a]] = last
                        slot[last[0]] = slot[a]
                if cap[back] == 0:
                    arcs = residual[to[a]]
                    slot[back] = len(arcs)
                    arcs.append(entry[back])
                cap[back] += push
                total_cost += push * cost[a]
                v = to[back]
            flow += push
        return flow, total_cost


@dataclass
class FlowMatch:
    """Decoded matching plus accounting for diagnostics."""

    matched_net: list[str | None]  # per sink index
    flow: int
    cost: int
    nodes: int
    arcs: int


#: Active flow-match memo (``None`` outside :func:`shared_flow_matches`):
#: maps an instance's content key to its solved :class:`FlowMatch`.
_FLOW_MEMO: dict | None = None


@contextmanager
def shared_flow_matches():
    """Solve each distinct matching instance once inside the block.

    Sibling grid cells often hand the matcher the very same instance:
    the netflow and oracle-key scenarios match one undefended layout
    under the same hint-3 capacities, and a defense matrix repeats the
    smoke grid's undefended cells.  Inside this context,
    :func:`_match_nets` keys each instance by its content — candidate
    pairs, cost bytes, per-source nets and tie flags, sink count and
    ``load_limit`` — and replays the solved matching for equal keys.

    Identical by construction: an equal key means an equal flow
    network, and each caller gets its own copy of the matching.  The
    memo is scoped to the ``with`` block, so memory is bounded by one
    sibling group's instances.
    """
    global _FLOW_MEMO
    previous = _FLOW_MEMO
    _FLOW_MEMO = {}
    try:
        yield
    finally:
        _FLOW_MEMO = previous


def _instance_key(
    candidates: CandidateSet, costs: np.ndarray, load_limit: int | None
) -> tuple:
    return (
        candidates.pairs.tobytes(),
        np.asarray(costs, dtype=np.float64).tobytes(),
        tuple((src.net, src.is_tie) for src in candidates.sources),
        len(candidates.sinks),
        load_limit,
    )


def _match_nets(
    candidates: CandidateSet,
    costs: np.ndarray,
    load_limit: int | None,
) -> FlowMatch:
    """Min-cost matching sink pin -> driver net over *candidates*.

    Inside :func:`shared_flow_matches`, equal instances solve once.
    """
    memo = _FLOW_MEMO
    if memo is None:
        return _solve_match(candidates, costs, load_limit)
    key = _instance_key(candidates, costs, load_limit)
    match = memo.get(key)
    if match is None:
        match = memo[key] = _solve_match(candidates, costs, load_limit)
    return replace(match, matched_net=list(match.matched_net))


def _solve_match(
    candidates: CandidateSet,
    costs: np.ndarray,
    load_limit: int | None,
) -> FlowMatch:
    sinks = candidates.sinks
    nets: list[str] = []
    net_index: dict[str, int] = {}
    net_is_tie: dict[str, bool] = {}
    for src in candidates.sources:
        if src.net not in net_index:
            net_index[src.net] = len(nets)
            nets.append(src.net)
        net_is_tie[src.net] = net_is_tie.get(src.net, False) or src.is_tie

    num_sinks = len(sinks)
    num_nets = len(nets)
    # Nodes: S, driver nets, sinks, T.
    s_node = 0
    t_node = 1 + num_nets + num_sinks
    flow = MinCostFlow(t_node + 1)
    for index, net in enumerate(nets):
        unbounded = net_is_tie[net] or load_limit is None
        capacity = num_sinks if unbounded else load_limit
        flow.add_edge(s_node, 1 + index, capacity, 0)

    # One arc per candidate pair: the best branch stub of each net was
    # already selected during candidate generation.  The fixed-point
    # cost conversion runs as one array op (np.rint rounds half to
    # even, exactly like the scalar ``int(round(...))`` it replaces);
    # the arc loop then walks plain lists, not per-row ndarray lookups.
    int_costs = (
        np.rint(np.asarray(costs, dtype=np.float64) * COST_SCALE)
        .astype(np.int64)
        .tolist()
    )
    sink_col = candidates.pairs[:, 0].tolist()
    source_col = candidates.pairs[:, 1].tolist()
    net_of_source = [net_index[net] for net in candidates._net_of_source]
    arc_of_pair: dict[tuple[int, int], int] = {}
    for sink_i, src_i, cost in zip(sink_col, source_col, int_costs):
        key = (sink_i, net_of_source[src_i])
        if key in arc_of_pair:
            continue
        arc_of_pair[key] = flow.add_edge(
            1 + key[1], 1 + num_nets + sink_i, 1, max(0, cost)
        )
    for sink_i in range(num_sinks):
        flow.add_edge(1 + num_nets + sink_i, t_node, 1, 0)

    pushed, total_cost = flow.solve(s_node, t_node, num_sinks)
    matched: list[str | None] = [None] * num_sinks
    for (sink_i, net_i), arc in arc_of_pair.items():
        if flow.cap[arc] == 0:  # saturated candidate arc carries the unit
            matched[sink_i] = nets[net_i]
    return FlowMatch(
        matched_net=matched,
        flow=pushed,
        cost=total_cost,
        nodes=flow.num_nodes,
        arcs=len(flow.to) // 2,
    )


def flow_assignment(
    view: FeolView,
    candidates: CandidateSet,
    costs: np.ndarray,
    load_limit: int | None = None,
) -> tuple[dict[int, str], dict[str, object]]:
    """Globally-optimal assignment under *costs*, loop-repaired.

    Returns ``(assignment, diagnostics)`` where *assignment* maps sink
    stub ids to net names, covering every sink with at least one
    loop-free candidate.
    """
    match = _match_nets(candidates, costs, load_limit)
    num_sinks = len(candidates.sinks)
    source_of_net_for_sink: list[dict[str, int]] = [
        {} for _ in range(num_sinks)
    ]
    order_for_sink: list[list[tuple[float, str, int]]] = [
        [] for _ in range(num_sinks)
    ]
    cost_col = np.asarray(costs, dtype=np.float64).tolist()
    net_names = candidates._net_of_source
    for sink_i, src_i, cost in zip(
        candidates.pairs[:, 0].tolist(),
        candidates.pairs[:, 1].tolist(),
        cost_col,
    ):
        net = net_names[src_i]
        source_of_net_for_sink[sink_i].setdefault(net, src_i)
        order_for_sink[sink_i].append((cost, net, src_i))
    for ranked in order_for_sink:
        ranked.sort()

    reaches = initial_reachability(view)
    assignment: dict[int, str] = {}
    loop_repairs = 0
    unmatched_fallbacks = 0
    # Deterministic commit order: sink stub id.
    commit_order = sorted(
        range(len(candidates.sinks)),
        key=lambda i: candidates.sinks[i].stub_id,
    )
    for sink_i in commit_order:
        sink = candidates.sinks[sink_i]
        committed = False
        trial: list[tuple[str, int]] = []
        net = match.matched_net[sink_i]
        if net is not None:
            trial.append((net, source_of_net_for_sink[sink_i][net]))
        else:
            unmatched_fallbacks += 1
        for _cost, other_net, src_i in order_for_sink[sink_i]:
            if net is not None and other_net == net:
                continue
            trial.append((other_net, src_i))
        for position, (candidate_net, src_i) in enumerate(trial):
            source = candidates.sources[src_i]
            if creates_loop(reaches, source, sink):
                continue
            if position > 0 and net is not None:
                loop_repairs += 1
            assignment[sink.stub_id] = candidate_net
            commit_edge(reaches, view, source, sink)
            committed = True
            break
        if not committed and trial:
            # Every candidate loops: geometric fallback inside
            # rebuild_netlist takes over (assignment left empty).
            loop_repairs += 1
    diagnostics: dict[str, object] = {
        "flow": match.flow,
        "flow_cost": match.cost,
        "flow_nodes": match.nodes,
        "flow_arcs": match.arcs,
        "loop_repairs": loop_repairs,
        "unmatched": unmatched_fallbacks,
    }
    return assignment, diagnostics
