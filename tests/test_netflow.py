"""Min-cost-flow matcher: differential tests against textbook SSP.

:func:`reference_solve` is the successive-shortest-path solver the
matcher shipped with before the early-exit rewrite — one full heap
Dijkstra over every arc per unit of flow — kept verbatim as the oracle.
The contract under test:

* flow value and optimal cost always equal the reference's;
* the matching itself is identical on tie-free costs and on every
  smoke and defense-matrix instance (early exit moves potentials, so
  among *equal-cost* optimal matchings it may pick another one);
* the group memo (:func:`shared_flow_matches`) is invisible in results.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import SCENARIOS, MinCostFlow, build_candidates, get_engine
from repro.adversary import netflow as netflow_module
from repro.adversary.engine import (
    DEFAULT_CANDIDATES_PER_SINK,
    DEFAULT_LOAD_LIMIT,
    AttackContext,
)
from repro.adversary.netflow import _match_nets, shared_flow_matches
from repro.runner.engine import run_attack_campaign
from repro.runner.profiles import attack_smoke_campaign, defense_smoke_campaign
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
