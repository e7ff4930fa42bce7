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

* **Early exit.**  Each augmentation's Dijkstra stops at the frontier:
  the first pop whose key reaches ``t``'s label ``D``, since every node
  popped later sits at distance ``D`` and would not move.  Only the
  nodes settled by then move their potential, each by
  ``dist[u] - dist[t]``, which keeps every residual reduced cost
  non-negative; after a ``D == 0`` augmentation nothing moves.
* **Residual adjacency.**  Dijkstra relaxes only arcs with capacity
  left: each node keeps the list of its residual arcs, updated in place
  along every augmenting path, so a matched sink pin offers one usable
  arc (back to its driver) instead of its whole candidate list.
* **Bipartite fast path.**  Once per solve, :class:`_Bipartite`
  checks that the network has the matcher's layered shape — ``S`` ->
  driver nets -> sink pins -> ``T``, every sink id above every net id,
  unit candidate and sink arcs, no parallel arcs, no flow yet.  Any
  other graph runs the plain heap loop.  On that shape:

  - *Persistent zero level.*  Every net with supply left sits at
    reduced distance 0 in every Dijkstra, at ``s``'s potential
    (``base``), and labels only sinks: each sink's cheapest open arc
    from such a net (lowest net id wins ties) is its kept *pick*.  A
    path changes only its own candidate arcs and perhaps its first
    net's supply, so only the path's first sink and the sinks that
    picked a drained net re-pick.
  - *Relative labels, no re-keying.*  Labels count from ``base`` and
    heap entries are keyed ``key - base``, so a ``D > 0`` augmentation
    (which lowers ``base`` by ``D``) leaves every kept label and
    unsettled heap entry valid.  The Dijkstra pops from the kept heap
    itself and undoes its own labels afterwards; only the sinks it
    settled, re-picks and newly live sinks get fresh entries, and the
    heap is compacted once stale entries pile up.
  - *Dead sinks.*  A sink matched to a net with supply left relaxes
    only its arc back to that net, already at the zero level, so
    popping it labels nothing.  It stays out of the heap, and its
    potential is tracked lazily: untouched, its key follows
    ``max(0, key - D)``; at key 0 it tracks ``base``, above it waits
    in a small heap until ``base`` falls to its key.  When its net
    drains it comes alive with its potential made explicit.
  - *Uncontended exit.*  If every sink's cheapest net fits the nets'
    capacities, that assignment is the solver's answer: every net
    stays at distance 0 and no path reroutes.  It is written into the
    arc capacities directly, with no Dijkstra at all.  Otherwise the
    same per-sink minimum (``np.minimum.reduceat`` over CSR arrays
    sorted by (sink, net)) is the first zero level.
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
matching itself is identical.  The bipartite fast path changes
nothing: it is identical to the early-exit heap solver, arc for arc
(every entry of ``cap``), also kept in the tests as an oracle.

Combinational-loop avoidance (hint 4) is not expressible as flow
capacity, so it runs as a deterministic repair pass over the decoded
matching: loop-closing edges are re-routed to the sink's next-cheapest
loop-free candidate.  A sink's candidates are ranked only when its
matched net closes a loop or it has no match; most sinks keep their
match and never need the ranking.

The module is engine-agnostic on purpose: :func:`flow_assignment` takes
any per-pair cost vector, so the learned scorer reuses the same
globally-optimal matcher with model-derived costs.
"""

from __future__ import annotations

import heapq
import itertools
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

#: The bipartite solver compacts its kept heap once it holds more than
#: this many entries per valid one (a live sink with a pick).
HEAP_SLACK = 1.25


class MinCostFlow:
    """Successive-shortest-path min-cost max-flow (integer costs >= 0)."""

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.graph: list[list[int]] = [[] for _ in range(num_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []
        #: ``to``, ``cap`` and ``cost`` as the int64 arrays :meth:`from_arcs`
        #: built them from; dropped by :meth:`add_edge` and :meth:`solve`.
        self.arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_arcs(
        cls,
        num_nodes: int,
        tail: np.ndarray,
        head: np.ndarray,
        cap: np.ndarray,
        cost: np.ndarray,
    ) -> "MinCostFlow":
        """The network of arcs ``tail[i] -> head[i]``, one array op per field.

        Arcs are numbered exactly as :meth:`add_edge` called in array
        order would number them (arc ``i`` is ``2 * i``, its reverse
        ``2 * i + 1``), and each node's arc list is in index order.  The
        first :meth:`solve` reads the shape from :attr:`arrays`, so edit
        the network only through :meth:`add_edge` before it.
        """
        if (cost < 0).any():
            raise ValueError("negative arc cost")
        flow = cls(num_nodes)
        tails = np.stack((tail, head), axis=1).ravel()  # of arc a; to[a] is a's head
        order = np.argsort(tails, kind="stable").tolist()
        bounds = np.cumsum(np.bincount(tails, minlength=num_nodes)).tolist()
        flow.graph = [order[lo:hi] for lo, hi in zip([0] + bounds, bounds)]
        flow.arrays = tuple(
            np.stack(pair, axis=1).ravel().astype(np.int64, copy=False)
            for pair in ((head, tail), (cap, np.zeros_like(cap)), (cost, -cost))
        )
        flow.to, flow.cap, flow.cost = (array.tolist() for array in flow.arrays)
        return flow

    def add_edge(self, u: int, v: int, cap: int, cost: int) -> int:
        """Add arc u->v; returns the arc index (reverse is index ^ 1).

        Costs must be non-negative: :meth:`solve` starts Dijkstra from
        zero potentials, so a negative arc would silently yield a
        non-optimal flow.
        """
        if cost < 0:
            raise ValueError(f"arc {u}->{v} has negative cost {cost}")
        self.arrays = None
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
        ``(reduced dist, node)``.  It stops at the first pop whose key
        reaches ``D = dist[t]`` (the frontier exit): every node popped
        later, ``t`` included, sits at distance ``D``.  Each node settled
        before that moves its potential by ``dist[u] - D``, and every
        other potential stays, which keeps all residual reduced costs
        non-negative; when ``D == 0`` nothing moves.  Relaxation walks a
        per-node list of the arcs with capacity left, maintained in
        place as the path's arcs saturate or gain reverse capacity.
        Saturated arcs (``cap == 0``) mark the chosen forward arcs.

        On a fresh bipartite matching network (:class:`_Bipartite`,
        checked once here) the uncontended exit may solve it outright;
        otherwise :meth:`_Bipartite.solve` runs the same Dijkstra from
        the kept zero level and heap, with labels relative to ``s``'s
        potential (no re-keying after ``D > 0``) and dead sinks kept out
        of the heap (see the module docstring).  Both are exact: flow,
        cost and every entry of ``cap`` equal the plain heap loop's.

        Flow and cost equal full-Dijkstra SSP's on every network; among
        several equal-cost optimal flows the one chosen may differ (see
        the module's tie contract).
        """
        layers = _Bipartite.of(self, s, t)
        self.arrays = None  # the solve below moves flow
        if layers is not None:
            uncontended = layers.uncontended(self.cap, max_flow)
            if uncontended is not None:
                return uncontended
        residual = _Residual(self)
        if layers is not None:
            return layers.solve(residual, max_flow)
        arcs_of = residual.arcs
        n = self.num_nodes
        potential = [0] * n
        unreached = float("inf")
        heappush, heappop = heapq.heappush, heapq.heappop
        flow = total_cost = 0
        while flow < max_flow:
            # label[v] = dist[v] + potential[v]: comparing labels compares
            # reduced distances without the per-arc potential lookup.
            settled: list[int] = []
            label: list = [unreached] * n
            parent = [-1] * n
            label[s] = potential[s]
            heap: list[tuple[int, int]] = [(0, s)]
            while heap:
                d, u = heappop(heap)
                if d >= label[t]:
                    break  # t is labelled at the key just popped
                base = d + potential[u]
                if base != label[u]:
                    continue  # stale entry
                settled.append(u)
                for a, v, c in arcs_of[u]:
                    x = base + c
                    if x < label[v]:
                        label[v] = x
                        parent[v] = a
                        heappush(heap, (x - potential[v], v))
            if label[t] == unreached:
                break  # no augmenting path: capacity exhausted
            # potential[u] + dist[u] - dist[t] for every settled node;
            # potential[t] stays 0, so label[t] is dist[t].
            reach = label[t]
            if reach:
                for u in settled:
                    potential[u] = label[u] - reach
            pushed, cost = residual.augment(residual.path(parent, s, t), max_flow - flow)
            flow += pushed
            total_cost += cost
        return flow, total_cost


class _Residual:
    """Per node, the arcs with capacity left, kept in place as flow moves.

    ``arcs[u]`` holds ``(arc, head, cost)`` for u's arcs with cap > 0;
    ``slot[a]`` is a's index there, so removal swaps in the last one.
    """

    def __init__(self, flow: MinCostFlow) -> None:
        to, cap, cost = flow.to, flow.cap, flow.cost
        self.to, self.cap, self.cost = to, cap, cost
        self.arcs = [
            [(a, to[a], cost[a]) for a in arcs if cap[a] > 0] for arcs in flow.graph
        ]
        self.slot = slot = [0] * len(to)
        for arcs in self.arcs:
            for position, (a, _, _) in enumerate(arcs):
                slot[a] = position

    def path(self, parent: list[int], s: int, t: int) -> list[int]:
        """The arcs of the augmenting path, from ``t`` back to ``s``."""
        to, path, v = self.to, [], t
        while v != s:
            a = parent[v]
            path.append(a)
            v = to[a ^ 1]
        return path

    def augment(self, path: list[int], limit: int) -> tuple[int, int]:
        """Push the bottleneck (at most *limit*) along *path*; returns
        (units pushed, cost added)."""
        to, cap, cost, slot, residual = self.to, self.cap, self.cost, self.slot, self.arcs
        push = min(limit, min(cap[a] for a in path))
        added = 0
        for a in path:
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
                arcs.append((back, to[back], cost[back]))
            cap[back] += push
            added += push * cost[a]
        return push, added


class _Bipartite:
    """The net -> sink arcs of a fresh bipartite matching network.

    :meth:`of` accepts exactly the matcher's shape: ``s`` feeds the left
    nodes (driver nets) through zero-cost arcs, every left -> right arc
    (candidate pair) has unit capacity, each right node (sink pin)
    drains to ``t`` through one zero-cost unit arc, every right id is
    above every left id, no two arcs join the same pair and no arc
    carries flow yet.  The candidate arcs are held as CSR arrays sorted
    by (sink, net).

    :meth:`solve` runs the successive-shortest-path loop on that shape,
    keeping its Dijkstra state across augmentations.
    """

    #: Label of a node Dijkstra has not reached.  :meth:`of` bounds the
    #: arc costs, so every real label, potential and heap key stays far
    #: below it.
    UNREACHED = 2**63 - 1
    #: Node states.  A *live* node is pushed when relaxed; a *dead* sink
    #: (matched to a net with supply left) is not, its potential either
    #: implied by ``base`` (``ZERO``) or stored in ``held`` (``HELD``);
    #: nor is ``t`` (``QUIET``), whose label only ends the Dijkstra.
    LIVE, ZERO, HELD, QUIET = 0, 1, 2, 3

    def __init__(self, s, t, cap, cost, arcs, nets, sinks, s_arc, t_arc) -> None:
        """Index the candidate *arcs*, already sorted by (sink, net).

        Every array is int64, per arc or node.
        """
        self.s, self.t = s, t
        self.arc = arcs
        self.net = nets
        self.sink = sinks
        self.cost = cost[arcs]
        starts = np.r_[True, sinks[1:] != sinks[:-1]]
        self.segment = np.cumsum(starts) - 1
        self.starts = np.flatnonzero(starts)
        self.s_arc = s_arc  # per node: its arc from s, or -1
        self.t_arc = t_arc  # per node: its arc to t, or -1
        left = s_arc >= 0
        self.supply = np.zeros(len(s_arc), dtype=np.int64)
        self.supply[left] = cap[s_arc[left]]

    @classmethod
    def of(cls, flow: MinCostFlow, s: int, t: int) -> "_Bipartite | None":
        """The network's bipartite view, or ``None`` for any other shape."""
        n = flow.num_nodes
        if max(flow.cap, default=0) >= 2**62 or sum(flow.cost[0::2]) >= 2**61:
            return None  # keep capacities and labels well inside int64
        to, cap, cost = flow.arrays or (
            np.asarray(column, dtype=np.int64)
            for column in (flow.to, flow.cap, flow.cost)
        )
        head, tail = to[0::2], to[1::2]
        from_s, into_t = tail == s, head == t
        middle = ~(from_s | into_t)
        left, right = head[from_s], tail[into_t]
        if (
            s == t
            or cap[1::2].any()
            or (head == s).any()
            or (tail == t).any()
            or (from_s & into_t).any()
            or not (left.size and right.size and middle.any())
            or left.max() >= right.min()
            or cost[0::2][from_s | into_t].any()
            or (cap[0::2][into_t | middle] != 1).any()
        ):
            return None
        side = np.zeros(n, dtype=np.int8)
        side[left], side[right] = 1, 2
        # left and right are disjoint (every left id is below every right
        # id), so a repeated node leaves fewer nodes marked than listed.
        if np.count_nonzero(side) != left.size + right.size:
            return None
        arcs = 2 * np.flatnonzero(middle)
        nets, sinks = tail[middle], head[middle]
        if (side[nets] != 1).any() or (side[sinks] != 2).any():
            return None
        order = np.lexsort((nets, sinks))
        arcs, nets, sinks = arcs[order], nets[order], sinks[order]
        if ((sinks[1:] == sinks[:-1]) & (nets[1:] == nets[:-1])).any():
            return None  # parallel candidate arcs
        s_arc = np.full(n, -1, dtype=np.int64)
        t_arc = np.full(n, -1, dtype=np.int64)
        s_arc[left] = 2 * np.flatnonzero(from_s)
        t_arc[right] = 2 * np.flatnonzero(into_t)
        return cls(s, t, cap, cost, arcs, nets, sinks, s_arc, t_arc)

    def cheapest(self, nets: np.ndarray) -> np.ndarray:
        """CSR position of each sink's cheapest arc from *nets*.

        *nets* is a per-node mask.  Among equal costs the lowest net id
        wins; sinks without such an arc are left out.
        """
        live = nets[self.net]
        value = np.where(live, self.cost, np.iinfo(np.int64).max)
        best = np.minimum.reduceat(value, self.starts)
        hit = np.flatnonzero(live & (value == best[self.segment]))
        segment = self.segment[hit]
        return hit[np.r_[True, segment[1:] != segment[:-1]][: len(hit)]]

    def uncontended(self, cap: list[int], max_flow: int) -> tuple[int, int] | None:
        """Solve outright when each sink's cheapest net fits, else ``None``.

        Each sink takes its cheapest net (lowest id among equal costs).
        If that assignment fits *max_flow* and every net's capacity
        from ``s``, the heap solver augments exactly these paths: every
        net with capacity left stays at reduced distance 0, and a path
        rerouted through a matched sink costs at least the direct one,
        which strict relaxation never prefers.  The paths are written
        into *cap* unit by unit, as the solver would leave them.

        A contended instance keeps that choice as the first zero level.
        """
        first = self.cheapest(self.supply > 0)
        used = np.bincount(self.net[first], minlength=len(self.supply))
        if len(first) > max_flow or (used > self.supply).any():
            self._first_level(first)
            return None
        sinks = self.sink[first].tolist()
        for arc in self.arc[first].tolist() + self.t_arc[sinks].tolist():
            cap[arc] -= 1
            cap[arc + 1] += 1
        for net in np.flatnonzero(used).tolist():
            arc = int(self.s_arc[net])
            cap[arc] -= int(used[net])
            cap[arc + 1] += int(used[net])
        return len(first), int(self.cost[first].sum())

    def _first_level(self, first: np.ndarray) -> None:
        """The kept state before the first augmentation.

        Every potential is 0, every sink is live and *first* is each
        sink's cheapest arc.
        """
        n = len(self.supply)
        nets = np.flatnonzero(self.supply > 0)
        best = np.full(n, -1, dtype=np.int64)
        best[self.sink[first]] = first
        self.best = best.tolist()  # per sink: CSR position of its pick, or -1
        self.supplied = (self.supply > 0).tolist()  # per node
        label = np.full(n, self.UNREACHED, dtype=np.int64)
        label[self.sink[first]] = self.cost[first]
        label[nets] = 0
        label[self.s] = 0
        parent = np.full(n, -1, dtype=np.int64)
        parent[nets] = self.s_arc[nets]
        parent[self.sink[first]] = self.arc[first]
        self.label, self.parent = label.tolist(), parent.tolist()
        self.state = [self.LIVE] * n
        self.state[self.t] = self.QUIET
        # Heap entries are ints ``key * n + node``: they order like the
        # tuples ``(key, node)`` and compare faster.
        self.n = n
        keys, sinks = self.cost[first].tolist(), self.sink[first].tolist()
        self.heap = [key * n + sink for key, sink in zip(keys, sinks)]
        heapq.heapify(self.heap)
        self.live = len(first)  # live sinks with a pick: the heap's valid entries
        self.base = 0  # potential of s and of every net with supply left
        # potential[v] for live nodes; UNREACHED for a dead sink, whose
        # stale heap entries then never match, and stale for the zero
        # level, whose potential is ``base``.
        self.potential = [0] * n
        self.held = [0] * n  # a HELD sink's potential
        self.holding: list[tuple[int, int]] = []  # HELD sinks, keyed key - base
        # Per sink its CSR span, per net its CSR positions, as lists.
        self.arcs, self.nets = self.arc.tolist(), self.net.tolist()
        self.costs, self.sinks = self.cost.tolist(), self.sink.tolist()
        lo = np.zeros(n, dtype=np.int64)
        hi = np.zeros(n, dtype=np.int64)
        lo[self.sink[self.starts]] = self.starts
        hi[self.sink[self.starts]] = np.r_[self.starts[1:], len(self.arc)]
        self.lo, self.hi = lo.tolist(), hi.tolist()
        by_net = np.argsort(self.net, kind="stable").tolist()
        bounds = np.cumsum(np.bincount(self.net, minlength=n)).tolist()
        self.by_net = [by_net[a:b] for a, b in zip([0] + bounds, bounds)]

    def solve(self, residual: _Residual, max_flow: int) -> tuple[int, int]:
        """Augment from the first zero level until *max_flow* or no path.

        The Dijkstra is the plain heap loop's minus the pops that change
        nothing (the zero level, dead sinks); see the module docstring.
        After each path:

        * settled nodes move their potential; a settled sink whose entry
          was popped or whose potential moved gets a fresh entry;
        * a dead sink the Dijkstra relaxed below ``D`` moves its held
          potential, and held sinks whose key falls to 0 join ``ZERO``;
        * the Dijkstra's own labels are undone;
        * if the path drained its first net, that net's matched sinks
          come alive and its pickers re-pick (:meth:`_drained`); the
          path's first sink re-picks, and dies if its net keeps supply
          (:meth:`_repick`).  Every other path sink is matched to a
          drained net, so it stays live with its pick.

        Stale heap entries are skipped when popped, and the heap is
        compacted to its valid entries once it outgrows them by
        :data:`HEAP_SLACK`.
        """
        s, t, to, cap = self.s, self.t, residual.to, residual.cap
        arcs_of = residual.arcs
        label, parent, best, state = self.label, self.parent, self.best, self.state
        arcs, costs = self.arcs, self.costs
        UNREACHED, ZERO, HELD = self.UNREACHED, self.ZERO, self.HELD
        potential, held, holding = self.potential, self.held, self.holding
        heap, n = self.heap, self.n
        heappush, heappop = heapq.heappush, heapq.heappop
        flow = total_cost = 0
        while flow < max_flow:
            settled: list[int] = []
            touched: list[int] = []  # nodes whose label this Dijkstra lowered
            quiet: list[int] = []  # ... among them t and the dead sinks
            limit = UNREACHED * n  # label[t] * n: entries at t's key or above
            while heap:
                entry = heappop(heap)
                if entry >= limit:
                    heappush(heap, entry)  # t is labelled at this key
                    break
                u = entry % n
                lu = label[u]
                if entry - u != (lu - potential[u]) * n:
                    continue  # stale entry
                settled.append(u)
                for a, v, c in arcs_of[u]:
                    x = lu + c
                    if x < label[v]:
                        label[v] = x
                        parent[v] = a
                        touched.append(v)
                        if state[v]:
                            quiet.append(v)
                            if v == t:
                                limit = x * n
                        else:
                            heappush(heap, (x - potential[v]) * n + v)
            reach = label[t]  # dist[t] - base
            if reach == UNREACHED:
                break  # no augmenting path: capacity exhausted
            path = residual.path(parent, s, t)
            # Settled nodes move to label - dist[t].  A sink whose entry
            # was popped or whose potential moved gets a fresh one.
            for u in settled:
                x = label[u] - reach
                b = best[u]
                if b >= 0 and (x != potential[u] or label[u] == costs[b]):
                    heappush(heap, (costs[b] - x) * n + u)
                potential[u] = x
            shift = reach + self.base  # D
            if shift:
                for v in quiet:
                    if state[v] == HELD and label[v] - reach < held[v]:
                        held[v] = label[v] - reach
                        if best[v] >= 0:
                            heappush(holding, (costs[best[v]] - held[v], v))
                base = self.base = self.base - shift
                while holding and holding[0][0] + base <= 0:
                    key, v = heappop(holding)
                    b = best[v]
                    if state[v] == HELD and b >= 0 and key == costs[b] - held[v]:
                        state[v] = ZERO
            for v in touched:
                b = best[v]
                if b >= 0:
                    label[v], parent[v] = costs[b], arcs[b]
                else:
                    label[v] = UNREACHED
            pushed, cost = residual.augment(path, max_flow - flow)
            flow += pushed
            total_cost += cost
            first_net, first_sink = to[path[-1]], to[path[-2]]
            if cap[path[-1]] == 0:
                self._drained(first_net, first_sink, cap)
            self._repick(first_sink, cap)
            if len(heap) > HEAP_SLACK * self.live:
                heap[:] = [e for e in heap if e // n == label[e % n] - potential[e % n]]
                heapq.heapify(heap)
        return flow, total_cost

    def _drained(self, net: int, first_sink: int, cap: list[int]) -> None:
        """*net*'s supply ran out: its matched sinks come alive, with
        their potentials made explicit, and the sinks that picked it
        re-pick.  *first_sink*, matched to it just now, re-picks next."""
        self.supplied[net] = False
        self.label[net] = self.UNREACHED
        self.potential[net] = self.base
        state, best, costs = self.state, self.best, self.costs
        for position in self.by_net[net]:
            sink = self.sinks[position]
            if sink == first_sink:
                continue
            if cap[self.arcs[position]] == 0:  # matched to net
                b = best[sink]
                if state[sink] == self.ZERO:
                    self.potential[sink] = self.base + costs[b]
                else:
                    self.potential[sink] = self.held[sink]
                state[sink] = self.LIVE
                if b >= 0:
                    self.live += 1
                    heapq.heappush(self.heap, (costs[b] - self.potential[sink]) * self.n + sink)
            elif best[sink] == position:
                self._repick(sink, cap)

    def _repick(self, sink: int, cap: list[int]) -> None:
        """Re-pick *sink*: its picked net drained or its pick closed.

        A live sink whose net keeps supply (the path's first sink) dies:
        its potential moves to ``held``, or to ``ZERO`` at key 0.
        """
        label, parent, state, costs = self.label, self.parent, self.state, self.costs
        base, held = self.base, self.held
        old = self.best[sink]
        b = self.best[sink] = self._cheapest_open(sink, cap)
        if b >= 0:
            parent[sink] = self.arcs[b]
        if state[sink] == self.LIVE:
            net = self.nets[old]
            if self.supplied[net] and cap[self.arcs[old]] == 0:
                held[sink] = self.potential[sink]  # matched to net: dies
                self.potential[sink] = self.UNREACHED
                state[sink] = self.HELD
                self.live -= 1
            elif b < 0:
                self.live -= 1
            elif costs[b] != costs[old]:
                heapq.heappush(self.heap, (costs[b] - self.potential[sink]) * self.n + sink)
        elif state[sink] == self.ZERO:
            held[sink] = base + costs[old]
            state[sink] = self.HELD
        label[sink] = costs[b] if b >= 0 else self.UNREACHED
        if state[sink] == self.HELD and b >= 0:
            if costs[b] + base == held[sink]:
                state[sink] = self.ZERO
            else:
                heapq.heappush(self.holding, (costs[b] - held[sink], sink))

    def _cheapest_open(self, sink: int, cap: list[int]) -> int:
        """CSR position of *sink*'s cheapest open arc from a net with
        supply, or -1."""
        best, low = -1, 0
        supplied, nets, arcs, costs = self.supplied, self.nets, self.arcs, self.costs
        for position in range(self.lo[sink], self.hi[sink]):
            if supplied[nets[position]] and cap[arcs[position]] > 0:
                if best < 0 or costs[position] < low:
                    best, low = position, costs[position]
        return best


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
    # Nodes: S, driver nets, sinks, T.  Arcs, in add_edge order: S ->
    # each net, one per (sink, net) pair at its first occurrence (the
    # best branch stub of each net was already selected during
    # candidate generation), each sink -> T.  np.rint rounds the
    # fixed-point costs half to even, like the scalar int(round(...)).
    s_node, t_node = 0, 1 + num_nets + num_sinks
    capacity = [
        num_sinks if net_is_tie[net] or load_limit is None else load_limit
        for net in nets
    ]
    net_of_source = np.array(
        [net_index[net] for net in candidates._net_of_source], dtype=np.int64
    )
    sink_col = candidates.pairs[:, 0].astype(np.int64)
    net_col = net_of_source[candidates.pairs[:, 1]]
    first = np.sort(np.unique(sink_col * num_nets + net_col, return_index=True)[1])
    pair_sink, pair_net = sink_col[first], net_col[first]
    pair_cost = np.rint(np.asarray(costs, dtype=np.float64)[first] * COST_SCALE)
    sink_ids = np.arange(1 + num_nets, t_node)
    s_zeros, t_zeros = np.zeros(num_nets, np.int64), np.zeros(num_sinks, np.int64)
    flow = MinCostFlow.from_arcs(
        t_node + 1,
        tail=np.r_[s_zeros + s_node, 1 + pair_net, sink_ids],
        head=np.r_[1 + np.arange(num_nets), sink_ids[pair_sink], t_zeros + t_node],
        cap=np.r_[np.array(capacity, np.int64), np.ones(len(first) + num_sinks, np.int64)],
        cost=np.r_[s_zeros, np.maximum(pair_cost, 0).astype(np.int64), t_zeros],
    )
    pushed, total_cost = flow.solve(s_node, t_node, num_sinks)
    matched: list[str | None] = [None] * num_sinks
    candidate_cap = flow.cap[2 * num_nets : 2 * (num_nets + len(first)) : 2]
    for sink_i, net_i, left in zip(pair_sink.tolist(), pair_net.tolist(), candidate_cap):
        if left == 0:  # saturated candidate arc carries the unit
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
    net_names = candidates._net_of_source
    cost_col = np.asarray(costs, dtype=np.float64)
    # ``pairs`` (and so *costs*) lists each sink's candidates
    # contiguously, in ``per_sink`` order.
    offsets = list(itertools.accumulate(map(len, candidates.per_sink), initial=0))

    def trial_order(sink_i: int, net: str | None):
        """The sink's (net, source) candidates in commit-trial order:
        the matched *net*'s first source, then every other candidate,
        cheapest first (ties by net, then source).  The ranking is only
        built once the caller reads past the matched net."""
        chosen = candidates.per_sink[sink_i]
        if net is not None:
            yield net, next(src_i for src_i in chosen if net_names[src_i] == net)
        sink_costs = cost_col[offsets[sink_i] : offsets[sink_i + 1]].tolist()
        nets = [net_names[src_i] for src_i in chosen]
        for _cost, other_net, src_i in sorted(zip(sink_costs, nets, chosen)):
            if other_net != net:
                yield other_net, src_i

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
        net = match.matched_net[sink_i]
        if net is None:
            unmatched_fallbacks += 1
        trial = trial_order(sink_i, net)
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
        if not committed and candidates.per_sink[sink_i]:
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
