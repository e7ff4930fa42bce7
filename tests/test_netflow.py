"""Min-cost-flow matcher: differential tests against two oracles.

:func:`reference_solve` is the successive-shortest-path solver the
matcher shipped with before the early-exit rewrite — one full heap
Dijkstra over every arc per unit of flow — kept verbatim as the oracle.
:func:`early_exit_solve` is the heap solver before the bipartite fast
path (zero-level batch and uncontended exit), also kept verbatim.
The contract under test:

* flow value and optimal cost always equal the reference's;
* the matching itself is identical on tie-free costs and on every
  smoke and defense-matrix instance (early exit moves potentials, so
  among *equal-cost* optimal matchings it may pick another one);
* the solver is identical to :func:`early_exit_solve` arc for arc:
  equal flow, cost and full ``cap`` array on every network, including
  tie-heavy ones with long runs of D = 0 augmentations (the solver
  carries its zero level across those), deeply contended ones whose
  dead sinks drain, re-pick and are relaxed by drained nets, every
  network the smoke and defense-matrix grids solve and the Tables I/II
  b14/M4 network;
* the group memo (:func:`shared_flow_matches`) is invisible in results;
* :func:`~repro.adversary.netflow.flow_assignment`, which ranks a
  sink's other candidates only when its matched net loops or it has no
  match, returns what :func:`eager_flow_assignment` (the loop repair
  that ranked every sink up front, kept verbatim) returns.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import SCENARIOS, MinCostFlow, build_candidates, get_engine
from repro.adversary import engine as engine_module
from repro.adversary import netflow as netflow_module
from repro.adversary.engine import (
    DEFAULT_CANDIDATES_PER_SINK,
    DEFAULT_LOAD_LIMIT,
    AttackContext,
)
from repro.adversary.netflow import (
    _Bipartite,
    _match_nets,
    flow_assignment,
    shared_flow_matches,
)
from repro.attacks.hints import creates_loop
from repro.attacks.proximity import commit_edge, initial_reachability
from repro.runner.engine import run_attack_campaign
from repro.runner.profiles import (
    attack_smoke_campaign,
    current_profile,
    defense_smoke_campaign,
)
from repro.runner.serialize import canonical_json, result_record
from repro.runner.spec import AttackCampaignSpec
from repro.runner.stages import cell_defense, cell_layout, locked_design
from tests.conftest import per_cell_records


def reference_solve(self, s: int, t: int, max_flow: int) -> tuple[int, int]:
    """Push up to *max_flow* units; returns (flow, total_cost).

    All arc costs are non-negative, so Dijkstra with potentials is
    valid from the first iteration.
    """
    n = self.num_nodes
    potential = [0] * n
    flow = total_cost = 0
    while flow < max_flow:
        dist = [None] * n
        parent_edge = [-1] * n
        dist[s] = 0
        heap: list[tuple[int, int]] = [(0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if dist[u] is None or d > dist[u]:
                continue
            for index in self.graph[u]:
                if self.cap[index] <= 0:
                    continue
                v = self.to[index]
                nd = d + self.cost[index] + potential[u] - potential[v]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    parent_edge[v] = index
                    heapq.heappush(heap, (nd, v))
        if dist[t] is None:
            break  # no augmenting path: capacity exhausted
        for u in range(n):
            if dist[u] is not None:
                potential[u] += dist[u]
        # Bottleneck along the path (arc capacities here are >= 1).
        push = max_flow - flow
        v = t
        while v != s:
            index = parent_edge[v]
            push = min(push, self.cap[index])
            v = self.to[index ^ 1]
        v = t
        while v != s:
            index = parent_edge[v]
            self.cap[index] -= push
            self.cap[index ^ 1] += push
            total_cost += push * self.cost[index]
            v = self.to[index ^ 1]
        flow += push
    return flow, total_cost


def early_exit_solve(self, s: int, t: int, max_flow: int) -> tuple[int, int]:
    """The early-exit heap solver over a residual adjacency."""
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
        reach = label[t] - potential[t]
        for u in settled:
            potential[u] = label[u] - reach
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


# ---------------------------------------------------------------------------
# Random bipartite instances, shaped like the matcher's networks


#: Tie-free costs are distinct powers of two, so distinct arc sets have
#: distinct total costs and the optimal flow is unique.  2**39 < 1e12.
TIE_FREE_EXPONENTS = 40


@st.composite
def bipartite_instances(draw, tie_free: bool):
    """(nets, sinks, tie flags, load_limit, [((net, sink), cost)])."""
    num_nets = draw(st.integers(1, 6))
    num_sinks = draw(st.integers(1, 8))
    tie_nets = draw(
        st.lists(st.booleans(), min_size=num_nets, max_size=num_nets)
    )
    load_limit = draw(st.sampled_from([None, 1, 2, 3]))
    pairs = []
    for sink in range(num_sinks):
        # An empty list is a sink with no candidates.
        nets = draw(
            st.lists(st.integers(0, num_nets - 1), unique=True, max_size=4)
        )
        pairs.extend((net, sink) for net in nets)
    if tie_free:
        pairs = pairs[:TIE_FREE_EXPONENTS]
        exponents = draw(st.permutations(range(TIE_FREE_EXPONENTS)))
        costs = [2**e for e in exponents[: len(pairs)]]
    else:
        costs = draw(
            st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs))
        )
    return num_nets, num_sinks, tie_nets, load_limit, list(zip(pairs, costs))


def _network(instance) -> tuple[MinCostFlow, list[int], int]:
    """The matcher's layout: S, driver nets, sinks, T."""
    num_nets, num_sinks, tie_nets, load_limit, arcs = instance
    t_node = 1 + num_nets + num_sinks
    flow = MinCostFlow(t_node + 1)
    for net in range(num_nets):
        unbounded = tie_nets[net] or load_limit is None
        flow.add_edge(0, 1 + net, num_sinks if unbounded else load_limit, 0)
    candidate_arcs = [
        flow.add_edge(1 + net, 1 + num_nets + sink, 1, cost)
        for (net, sink), cost in arcs
    ]
    for sink in range(num_sinks):
        flow.add_edge(1 + num_nets + sink, t_node, 1, 0)
    return flow, candidate_arcs, t_node


def _solve_both(instance):
    fast, arcs, t_node = _network(instance)
    slow, _, _ = _network(instance)
    num_sinks = instance[1]
    got = fast.solve(0, t_node, num_sinks)
    want = reference_solve(slow, 0, t_node, num_sinks)
    saturated = (
        [a for a in arcs if fast.cap[a] == 0],
        [a for a in arcs if slow.cap[a] == 0],
    )
    return got, want, saturated


@settings(max_examples=300, deadline=None)
@given(bipartite_instances(tie_free=False))
def test_tie_heavy_flow_and_cost_match_reference(instance):
    got, want, _ = _solve_both(instance)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(bipartite_instances(tie_free=True))
def test_tie_free_matching_matches_reference(instance):
    got, want, (fast_arcs, slow_arcs) = _solve_both(instance)
    assert got == want
    assert fast_arcs == slow_arcs


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    st.integers(0, n - 1),
                    st.integers(1, 3),
                    st.integers(0, 5),
                ),
                max_size=20,
            ),
            st.integers(1, 6),
        )
    )
)
def test_general_graph_flow_and_cost_match_reference(graph):
    # Non-unit capacities and parallel arcs: pushes above one unit and
    # reverse arcs regaining capacity mid-solve.
    num_nodes, edges, max_flow = graph
    networks = [MinCostFlow(num_nodes), MinCostFlow(num_nodes)]
    for net in networks:
        for u, v, cap, cost in edges:
            if u != v:
                net.add_edge(u, v, cap, cost)
    t_node = num_nodes - 1
    assert networks[0].solve(0, t_node, max_flow) == reference_solve(
        networks[1], 0, t_node, max_flow
    )


def _solve_fast_and_early_exit(instance, max_flow: int):
    """(result, cap) of the solver and of the early-exit heap solver."""
    fast, _, t_node = _network(instance)
    slow, _, _ = _network(instance)
    got = fast.solve(0, t_node, max_flow)
    want = early_exit_solve(slow, 0, t_node, max_flow)
    return (got, fast.cap), (want, slow.cap)


@settings(max_examples=500, deadline=None)
@given(bipartite_instances(tie_free=False), st.data())
def test_tie_heavy_networks_are_identical_to_early_exit_solver(instance, data):
    # Full cap arrays, so every tie resolves to the same arcs; partial
    # max_flow stops mid-solve.
    max_flow = data.draw(st.integers(0, instance[1] + 1))
    got, want = _solve_fast_and_early_exit(instance, max_flow)
    assert got == want


@st.composite
def zero_streak_instances(draw):
    """Contended instances where most augmentations reach ``t`` at D = 0.

    Many sinks, few nets with small loads and costs mostly 0: the zero
    level drains nets one after another while sinks keep re-picking.
    """
    num_nets = draw(st.integers(2, 6))
    num_sinks = draw(st.integers(4, 14))
    tie_nets = draw(st.lists(st.booleans(), min_size=num_nets, max_size=num_nets))
    load_limit = draw(st.sampled_from([1, 2]))
    pairs = []
    for sink in range(num_sinks):
        nets = draw(st.lists(st.integers(0, num_nets - 1), unique=True, max_size=num_nets))
        pairs.extend((net, sink) for net in nets)
    costs = draw(
        st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=len(pairs), max_size=len(pairs))
    )
    return num_nets, num_sinks, tie_nets, load_limit, list(zip(pairs, costs))


@settings(max_examples=300, deadline=None)
@given(zero_streak_instances(), st.data())
def test_zero_streaks_are_identical_to_early_exit_solver(instance, data):
    max_flow = data.draw(st.integers(0, instance[1]))
    got, want = _solve_fast_and_early_exit(instance, max_flow)
    assert got == want


@st.composite
def deep_contention_instances(draw):
    """Larger contended instances with long reroutes.

    More sinks than the nets' loads can take, costs in 0-40 and a few
    TIE nets: nets drain and free the dead sinks matched to them, dead
    sinks re-pick and are relaxed by drained nets, and runs of D > 0
    augmentations reroute along paths through several nets.  A low cost
    ceiling makes ties, which expose any error in a dead sink's
    potential: it orders the sinks that relabel one drained net.
    """
    num_nets = draw(st.integers(3, 10))
    num_sinks = draw(st.integers(8, 30))
    tie_nets = draw(
        st.lists(st.integers(0, 4).map(lambda k: k == 0), min_size=num_nets, max_size=num_nets)
    )
    load_limit = draw(st.integers(1, 3))
    pairs = []
    for sink in range(num_sinks):
        nets = draw(
            st.lists(st.integers(0, num_nets - 1), unique=True, min_size=1, max_size=5)
        )
        pairs.extend((net, sink) for net in nets)
    ceiling = draw(st.sampled_from([2, 3, 5, 40]))
    costs = draw(
        st.lists(st.integers(0, ceiling), min_size=len(pairs), max_size=len(pairs))
    )
    return num_nets, num_sinks, tie_nets, load_limit, list(zip(pairs, costs))


@settings(max_examples=300, deadline=None)
@given(deep_contention_instances(), st.data())
def test_deep_contention_is_identical_to_early_exit_solver(instance, data):
    max_flow = data.draw(st.integers(0, instance[1]))
    got, want = _solve_fast_and_early_exit(instance, max_flow)
    assert got == want


#: Small instances where a dead sink's potential decides a tie between
#: the sinks that relabel a drained net, so the matching depends on it.
DEAD_SINK_TIES = {
    # A sink at key 0 comes alive when its net drains.
    "freed from key 0": (3, 7, [False] * 3, 3, [
        ((0, 0), 1), ((1, 0), 2), ((1, 1), 0), ((1, 2), 1), ((2, 3), 1),
        ((0, 3), 0), ((0, 4), 0), ((0, 5), 0), ((2, 6), 0), ((1, 6), 0),
    ]),
    # A sink at key 0 re-picks when its picked net drains.
    "re-picked from key 0": (4, 7, [False] * 4, 3, [
        ((1, 0), 0), ((0, 1), 2), ((1, 2), 0), ((1, 3), 1), ((0, 4), 1),
        ((3, 4), 1), ((0, 5), 0), ((2, 5), 0), ((1, 5), 0), ((0, 6), 0),
    ]),
    # A held sink's key falls to 0 as base drops.
    "held key reaches 0": (3, 4, [False] * 3, 3, [
        ((2, 0), 2), ((2, 1), 1), ((1, 1), 2), ((2, 2), 2), ((2, 3), 0), ((0, 3), 1),
    ]),
}


@pytest.mark.parametrize("case", sorted(DEAD_SINK_TIES))
def test_dead_sink_potentials_decide_ties(case):
    instance = DEAD_SINK_TIES[case]
    got, want = _solve_fast_and_early_exit(instance, instance[1])
    assert got == want


def test_deep_contention_reaches_every_transition(monkeypatch):
    # The generator above must exercise what the bipartite solver keeps
    # across augmentations; count each transition over its examples.
    seen = {"freed": 0, "dead repick": 0, "held relaxed": 0, "D>0 run": 0, "long path": 0}
    solver = []
    run = [0]
    held_at_path = []
    path, augment = netflow_module._Residual.path, netflow_module._Residual.augment
    drained, repick = _Bipartite._drained, _Bipartite._repick
    solve = _Bipartite.solve

    def solving(self, residual, max_flow):
        solver[:] = [self]
        run[0] = 0
        return solve(self, residual, max_flow)

    def tracing(self, parent, s, t):
        held_at_path[:] = [list(solver[0].held), solver[0].base]
        return path(self, parent, s, t)

    def augmenting(self, arcs, limit):
        layers = solver[0]
        before, base = held_at_path
        if any(
            layers.state[v] == _Bipartite.HELD and layers.held[v] != before[v]
            for v in range(len(before))
        ):
            seen["held relaxed"] += 1
        run[0] = run[0] + 1 if layers.base != base else 0
        seen["D>0 run"] += run[0] >= 3
        seen["long path"] += len(arcs) >= 6  # through three nets or more
        return augment(self, arcs, limit)

    def draining(self, net, first_sink, cap):
        dead = sum(state != _Bipartite.LIVE for state in self.state[: self.t])
        drained(self, net, first_sink, cap)
        seen["freed"] += sum(state != _Bipartite.LIVE for state in self.state[: self.t]) < dead

    def repicking(self, sink, cap):
        seen["dead repick"] += self.state[sink] in (_Bipartite.ZERO, _Bipartite.HELD)
        repick(self, sink, cap)

    monkeypatch.setattr(_Bipartite, "solve", solving)
    monkeypatch.setattr(netflow_module._Residual, "path", tracing)
    monkeypatch.setattr(netflow_module._Residual, "augment", augmenting)
    monkeypatch.setattr(_Bipartite, "_drained", draining)
    monkeypatch.setattr(_Bipartite, "_repick", repicking)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(deep_contention_instances())
    def solve_all(instance):
        flow, _, t_node = _network(instance)
        flow.solve(0, t_node, instance[1])

    solve_all()
    assert all(seen.values()), seen


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(deep_contention_instances(), zero_streak_instances()),
    st.data(),
)
def test_compacting_every_augmentation_changes_nothing(instance, data):
    # A zero slack compacts the kept heap after every augmentation.
    max_flow = data.draw(st.integers(0, instance[1]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(netflow_module, "HEAP_SLACK", 0)
        got, want = _solve_fast_and_early_exit(instance, max_flow)
    assert got == want


def test_sink_repicks_when_its_best_net_drains():
    # Sinks 0 and 1 both prefer net 0 (cost 0), whose load is 1.  The
    # first path, s -> net 0 -> sink 0 -> t, has D = 0 and drains net 0,
    # so sink 1 (not on the path) must drop net 0 from its zero level
    # and fall back to net 1; a stale pick would route a second unit
    # through the drained arc from s.
    arcs = [((0, 0), 0), ((0, 1), 0), ((1, 1), 5)]
    instance = (2, 2, [False, False], 1, arcs)
    flow, candidate_arcs, t_node = _network(instance)
    assert flow.solve(0, t_node, 2) == (2, 5)
    chosen = {
        pair for (pair, _), arc in zip(arcs, candidate_arcs) if flow.cap[arc] == 0
    }
    assert chosen == {(0, 0), (1, 1)}
    got, want = _solve_fast_and_early_exit(instance, 2)
    assert got == want


def test_batch_skips_saturated_candidate_arcs():
    # After net 1 takes sink 1, its saturated arc to sink 1 is its
    # cheapest; a batch that still counted it would label sink 1 too
    # low and settle it out of turn, moving later tie-breaks.
    arcs = [((0, 0), 4), ((1, 0), 2), ((1, 1), 0), ((0, 1), 2), ((1, 2), 2)]
    got, want = _solve_fast_and_early_exit((2, 3, [False, False], 2, arcs), 3)
    assert got == want


def test_uncontended_exit_picks_lowest_id_net_for_tied_sinks(monkeypatch):
    # Nets 2, 1, 0 (added in that order) tie on sinks 0-2; net 2 is
    # strictly cheapest on sink 3.  Unbounded loads: no contention.
    arcs = [((net, sink), 5) for sink in range(3) for net in (2, 1, 0)]
    arcs += [((2, 3), 4), ((0, 3), 5)]
    instance = (3, 4, [False] * 3, None, arcs)
    exits = []
    uncontended = _Bipartite.uncontended

    def spy(self, cap, max_flow):
        exits.append(uncontended(self, cap, max_flow))
        return exits[-1]

    monkeypatch.setattr(_Bipartite, "uncontended", spy)
    flow, candidate_arcs, t_node = _network(instance)
    assert flow.solve(0, t_node, 4) == (4, 19)
    assert exits == [(4, 19)]
    chosen = {
        pair for (pair, _), arc in zip(arcs, candidate_arcs) if flow.cap[arc] == 0
    }
    assert chosen == {(0, 0), (0, 1), (0, 2), (2, 3)}
    got, want = _solve_fast_and_early_exit(instance, 4)
    assert got == want


def test_contended_instances_skip_the_exit():
    # Load limit 1 with two sinks preferring net 0: contended.
    arcs = [((0, 0), 1), ((1, 0), 3), ((0, 1), 1), ((1, 1), 2)]
    instance = (2, 2, [False, False], 1, arcs)
    flow, _, t_node = _network(instance)
    assert _Bipartite.of(flow, 0, t_node).uncontended(list(flow.cap), 2) is None
    got, want = _solve_fast_and_early_exit(instance, 2)
    assert got == want
    assert got[0] == (2, 3)  # sink 1 yields net 0 to sink 0


def test_bipartite_view_only_on_the_matchers_shape():
    def network(num_nets=2, num_sinks=2):
        flow, _, t_node = _network(
            (num_nets, num_sinks, [False] * num_nets, None, [((0, 0), 1), ((1, 1), 1)])
        )
        return flow, t_node

    flow, t_node = network()
    assert _Bipartite.of(flow, 0, t_node) is not None
    parallel, t_node = network()
    parallel.add_edge(1, 3, 1, 2)  # net 0 -> sink 0 again
    wide, _ = network()
    wide.add_edge(2, 3, 2, 0)  # a candidate arc of capacity 2
    used, _ = network()
    used.cap[1] = 1  # the reverse of s -> net 0 carries flow
    for other in (parallel, wide, used):
        assert _Bipartite.of(other, 0, t_node) is None
    # Sinks numbered below nets: the heap loop alone.
    swapped = MinCostFlow(6)
    for sink, net in ((1, 3), (2, 4)):
        swapped.add_edge(0, net, 1, 0)
        swapped.add_edge(net, sink, 1, 1)
        swapped.add_edge(sink, 5, 1, 0)
    assert _Bipartite.of(swapped, 0, 5) is None
    assert swapped.solve(0, 5, 2) == (2, 2)


def test_from_arcs_numbers_arcs_like_add_edge():
    arcs = [(0, 1, 2, 0), (0, 2, 1, 0), (1, 3, 1, 4), (2, 3, 1, 1), (1, 2, 1, 0)]
    added = MinCostFlow(4)
    for u, v, cap, cost in arcs:
        added.add_edge(u, v, cap, cost)
    tail, head, cap, cost = (np.array(column, dtype=np.int64) for column in zip(*arcs))
    built = MinCostFlow.from_arcs(4, tail, head, cap, cost)
    assert (built.graph, built.to, built.cap, built.cost) == (
        added.graph, added.to, added.cap, added.cost
    )
    with pytest.raises(ValueError, match="negative"):
        MinCostFlow.from_arcs(4, tail, head, cap, cost - 2)


def test_add_edge_rejects_negative_cost():
    flow = MinCostFlow(2)
    with pytest.raises(ValueError, match="negative cost"):
        flow.add_edge(0, 1, 1, -1)
    assert flow.to == []  # nothing half-added


# ---------------------------------------------------------------------------
# The paper's instances: smoke and defense-matrix views


def _first_cell(spec: AttackCampaignSpec, benchmark: str):
    return next(c for c in spec.cells() if c.cell.benchmark == benchmark)


def _undefended_view(benchmark: str):
    cell = _first_cell(attack_smoke_campaign(), benchmark).cell
    design = locked_design(cell)
    return cell_layout(cell, design=design).feol_view(cell.split_layer)


def _defended_views():
    spec = defense_smoke_campaign()
    cell = spec.cells()[0].cell
    design = locked_design(cell)
    layout = cell_layout(cell, design=design)
    views = {}
    for acell in spec.cells():
        if acell.defense is not None and acell.defense.name not in views:
            views[acell.defense.name] = cell_defense(
                cell, acell.defense, design=design, layout=layout
            ).view
    return views


def _instance(view, scenario_name: str):
    """(candidates, costs, load_limit) exactly as the engine builds them."""
    scenario = SCENARIOS[scenario_name].resolve()
    engine = get_engine(scenario.engine)
    candidates = build_candidates(view, per_sink=DEFAULT_CANDIDATES_PER_SINK)
    ctx = AttackContext(
        view=view, scenario=scenario, seed=scenario.seed, budget=scenario.budget
    )
    costs, _ = engine.costs(ctx, candidates)
    load_limit = DEFAULT_LOAD_LIMIT if scenario.has_hints else None
    return candidates, costs, load_limit


def _assert_matches_reference(view, monkeypatch) -> None:
    for scenario_name in ("netflow", "learned"):
        candidates, costs, load_limit = _instance(view, scenario_name)
        got = _match_nets(candidates, costs, load_limit)
        with monkeypatch.context() as patch:
            patch.setattr(MinCostFlow, "solve", reference_solve)
            want = _match_nets(candidates, costs, load_limit)
        assert got == want, scenario_name


@pytest.fixture(scope="module")
def smoke_view():
    return _undefended_view("random:i14-o8-g200")


def test_smoke_matching_matches_reference(smoke_view, monkeypatch):
    _assert_matches_reference(smoke_view, monkeypatch)


@pytest.mark.slow
def test_b14_smoke_matching_matches_reference(monkeypatch):
    _assert_matches_reference(_undefended_view("b14"), monkeypatch)


@pytest.mark.slow
def test_matrix_matchings_match_reference(monkeypatch):
    views = _defended_views()
    assert len(views) == 3
    for view in views.values():
        _assert_matches_reference(view, monkeypatch)


def test_smoke_networks_are_identical_to_early_exit_solver(smoke_view, monkeypatch):
    for scenario_name in ("netflow", "learned"):
        candidates, costs, load_limit = _instance(smoke_view, scenario_name)
        solved = []
        for solve in (MinCostFlow.solve, early_exit_solve):

            def recording(self, s, t, max_flow, solve=solve):
                result = solve(self, s, t, max_flow)
                solved.append((result, list(self.cap)))
                return result

            with monkeypatch.context() as patch:
                patch.setattr(MinCostFlow, "solve", recording)
                _match_nets(candidates, costs, load_limit)
        assert solved[0] == solved[1], scenario_name


def _copy(network: MinCostFlow) -> MinCostFlow:
    twin = MinCostFlow(network.num_nodes)
    twin.graph = [list(arcs) for arcs in network.graph]
    twin.to, twin.cap, twin.cost = list(network.to), list(network.cap), list(network.cost)
    return twin


def _compared_to_early_exit(monkeypatch) -> list[tuple[int, bool]]:
    """Patch every solve to check itself against the early-exit solver.

    Returns the list each solve appends (arcs, equal flow, cost and cap
    array) to.
    """
    solved = []
    solve = MinCostFlow.solve

    def compared(self, s, t, max_flow):
        twin = _copy(self)
        result = solve(self, s, t, max_flow)
        want = early_exit_solve(twin, s, t, max_flow)
        solved.append((len(self.to) // 2, result == want and self.cap == twin.cap))
        return result

    monkeypatch.setattr(MinCostFlow, "solve", compared)
    return solved


@pytest.mark.slow
def test_attack_grid_networks_are_identical_to_early_exit_solver(monkeypatch):
    # Every network the smoke and defense-matrix grids solve (the
    # attack-grid-cold campaign): equal flow, cost and cap arrays.
    solved = _compared_to_early_exit(monkeypatch)
    cells = attack_smoke_campaign().cells() + defense_smoke_campaign().cells()
    run_attack_campaign(cells, workers=1, use_cache=False)
    assert len(solved) == 10
    assert sum(arcs for arcs, _ in solved) == 69_090
    assert all(same for _, same in solved)


@pytest.mark.slow
def test_tables_b14_m4_netflow_is_identical_to_early_exit_solver(monkeypatch):
    # The largest Tables I/II network the early-exit solver checks in
    # seconds (b17/M4 takes it minutes): equal flow, cost and cap array.
    cell = next(
        c for c in current_profile().table_campaign().cells()
        if (c.benchmark, c.split_layer) == ("b14", 4)
    )
    view = cell_layout(cell, design=locked_design(cell)).feol_view(cell.split_layer)
    candidates, costs, load_limit = _instance(view, "netflow")
    solved = _compared_to_early_exit(monkeypatch)
    _match_nets(candidates, costs, load_limit)
    assert [same for _, same in solved] == [True]


def test_match_nets_clamps_negative_costs(smoke_view):
    candidates, costs, load_limit = _instance(smoke_view, "netflow")
    shifted = costs - np.median(costs)
    assert (shifted < 0).any()
    clamped = _match_nets(candidates, np.maximum(shifted, 0.0), load_limit)
    assert _match_nets(candidates, shifted, load_limit) == clamped


# ---------------------------------------------------------------------------
# The group memo


@pytest.fixture()
def solve_calls(monkeypatch):
    calls = []
    original = MinCostFlow.solve

    def counted(self, s, t, max_flow):
        calls.append(len(self.to) // 2)
        return original(self, s, t, max_flow)

    monkeypatch.setattr(MinCostFlow, "solve", counted)
    return calls


def test_memo_solves_equal_instances_once(smoke_view, solve_calls):
    candidates, costs, load_limit = _instance(smoke_view, "netflow")
    with shared_flow_matches():
        first = _match_nets(candidates, costs, load_limit)
        second = _match_nets(candidates, costs.copy(), load_limit)
    assert len(solve_calls) == 1
    assert first == second


def test_memo_returns_independent_copies(smoke_view, solve_calls):
    candidates, costs, load_limit = _instance(smoke_view, "netflow")
    with shared_flow_matches():
        first = _match_nets(candidates, costs, load_limit)
        pristine = list(first.matched_net)
        first.matched_net[0] = "tampered"
        second = _match_nets(candidates, costs, load_limit)
    assert second.matched_net == pristine
    assert len(solve_calls) == 1


def test_memo_misses_on_changed_cost_or_load_limit(smoke_view, solve_calls):
    candidates, costs, load_limit = _instance(smoke_view, "netflow")
    bumped = costs.copy()
    bumped[0] += 1.0
    with shared_flow_matches():
        _match_nets(candidates, costs, load_limit)
        _match_nets(candidates, bumped, load_limit)
        _match_nets(candidates, costs, load_limit + 1)
        _match_nets(candidates, costs, load_limit)  # the only hit
    assert len(solve_calls) == 3


def test_memo_is_scoped_to_the_block(smoke_view, solve_calls):
    candidates, costs, load_limit = _instance(smoke_view, "netflow")
    with shared_flow_matches():
        _match_nets(candidates, costs, load_limit)
        with shared_flow_matches():  # nested blocks start empty
            _match_nets(candidates, costs, load_limit)
        _match_nets(candidates, costs, load_limit)
    assert netflow_module._FLOW_MEMO is None
    _match_nets(candidates, costs, load_limit)
    assert len(solve_calls) == 3


def test_fused_grid_shares_flow_solves(solve_calls):
    # netflow and oracle-key siblings hand the matcher one instance,
    # and the benchmark listed twice duplicates both cells: the fused
    # group solves it once, the per-cell path four times.
    spec = AttackCampaignSpec(
        benchmarks=("random:i10-o5-g90", "random:i10-o5-g90"),
        scenarios=("netflow", "oracle-key"),
        split_layers=(4,),
        key_bits=(10,),
        hd_patterns=512,
        max_candidates=60,
    )
    fused = run_attack_campaign(spec, workers=1, use_cache=False)
    fused_solves = len(solve_calls)
    reference = per_cell_records(spec.cells())
    assert (fused_solves, len(solve_calls) - fused_solves) == (1, 4)
    assert canonical_json([result_record(r) for r in fused.cells]) == reference


# ---------------------------------------------------------------------------
# Loop repair: lazy per-sink rankings against the eager builder


def eager_flow_assignment(view, candidates, costs, load_limit=None):
    """The loop repair before lazy rankings: every sink's candidate list
    is built and sorted up front (kept verbatim as the oracle)."""
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


def test_smoke_loop_repair_matches_eager_rankings(smoke_view):
    repaired = 0
    for scenario_name in ("netflow", "learned"):
        instance = _instance(smoke_view, scenario_name)
        got = flow_assignment(smoke_view, *instance)
        assert got == eager_flow_assignment(smoke_view, *instance), scenario_name
        repaired += got[1]["loop_repairs"]
    assert repaired > 0  # the lazy ranking path ran


def test_unmatched_sinks_fall_back_to_eager_rankings(smoke_view):
    # A load limit of 1 leaves most sinks without a match, so nearly
    # every sink walks its full ranking.
    candidates, costs, _ = _instance(smoke_view, "netflow")
    got = flow_assignment(smoke_view, candidates, costs, load_limit=1)
    assert got[1]["unmatched"] > 0
    assert got == eager_flow_assignment(smoke_view, candidates, costs, 1)


@pytest.mark.slow
def test_attack_grid_loop_repairs_match_eager_rankings(monkeypatch):
    # Every flow_assignment call of the smoke and defense-matrix grids
    # (the attack-grid-cold campaign) against the eager builder.
    compared = []

    def both(view, candidates, costs, load_limit=None):
        got = flow_assignment(view, candidates, costs, load_limit)
        want = eager_flow_assignment(view, candidates, costs, load_limit)
        compared.append(got == want)
        return got

    monkeypatch.setattr(engine_module, "flow_assignment", both)
    cells = attack_smoke_campaign().cells() + defense_smoke_campaign().cells()
    run_attack_campaign(cells, workers=1, use_cache=False)
    assert len(compared) == 14  # over the grid's 10 flow networks
    assert all(compared)
