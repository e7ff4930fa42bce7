"""The shared candidate shortlist against the full-row reference walks.

:func:`repro.phys.geometry.shortlist` pre-screens each sink's sources
with approximate scores and ranks exactly only where the walk reads.
The contract under test: the proximity attack's candidate heap entries
(:func:`repro.attacks.proximity.candidate_heap`) equal the reference
walk's pushes (:func:`tests.candidate_reference.reference_heap`) entry
for entry, and ``CandidateSet.pairs``, ``features`` and ``labels`` are
byte-identical to those built on the reference candidate walk — on the
smoke views, on synthetic edge cases, and (slow) on every Tables I/II
and Table III view under both profiles' candidate budgets.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.adversary import features as features_module
from repro.adversary.engine import DEFAULT_CANDIDATES_PER_SINK
from repro.adversary.features import build_candidates, candidate_sources
from repro.attacks.proximity import ProximityAttackConfig, candidate_heap
from repro.benchgen import TABLE_III_BENCHMARKS
from repro.phys import geometry
from repro.phys.split import FeolView, SinkStub, SourceStub
from repro.runner.profiles import (
    TABLE_III_DEFENSES,
    attack_smoke_campaign,
    current_profile,
)
from repro.runner.spec import AttackCampaignSpec
from repro.runner.stages import cell_defense, cell_layout, locked_design
from tests.candidate_reference import (
    reference_candidate_sources,
    reference_heap,
)


def _fresh(view: FeolView) -> FeolView:
    """A copy of *view* without any memo (pickles drop them)."""
    return pickle.loads(pickle.dumps(view))


def _assert_same_candidates(view: FeolView, per_sink: int) -> None:
    config = ProximityAttackConfig(candidates_per_sink=per_sink)
    assert candidate_heap(view, config) == reference_heap(view, per_sink)
    got = candidate_sources(view, per_sink)
    want = reference_candidate_sources(view, per_sink)
    assert got[2] == want[2]


def _assert_same_candidate_set(view: FeolView, per_sink: int, monkeypatch) -> None:
    got = build_candidates(_fresh(view), per_sink, with_labels=True)
    with monkeypatch.context() as patch:
        patch.setattr(
            features_module, "candidate_sources", reference_candidate_sources
        )
        want = build_candidates(_fresh(view), per_sink, with_labels=True)
    assert got.per_sink == want.per_sink
    for name in ("pairs", "features", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@pytest.fixture(scope="module")
def smoke_views() -> list[FeolView]:
    views = []
    for acell in attack_smoke_campaign().cells():
        cell = acell.cell
        if acell.scenario.name != "proximity":
            continue
        layout = cell_layout(cell, design=locked_design(cell))
        views.append(layout.feol_view(cell.split_layer))
    assert len(views) == 2
    return views


@pytest.mark.parametrize("per_sink", [1, 4, 16])
def test_smoke_views_match_the_reference_walks(smoke_views, per_sink, monkeypatch):
    for view in smoke_views:
        _assert_same_candidates(view, per_sink)
        _assert_same_candidate_set(view, per_sink, monkeypatch)


def test_shortlist_is_memoised_read_only_and_out_of_pickles(smoke_views):
    view = _fresh(smoke_views[0])
    size = len(pickle.dumps(view))
    ranked = geometry.shortlist(view, 16)
    assert geometry.shortlist(view, 16) is ranked
    assert geometry.shortlist(view, 8) is not ranked
    for field in dataclasses.fields(ranked):
        assert not getattr(ranked, field.name).flags.writeable, field.name
    assert len(pickle.dumps(view)) == size
    # A defense-style stub reassignment ranks again.
    view.sink_stubs = view.sink_stubs[::2]
    assert geometry.shortlist(view, 16) is not ranked
    _assert_same_candidates(view, 16)


# ----------------------------------------------------------------------
# Synthetic edge cases
# ----------------------------------------------------------------------
def _synthetic_view(
    seed: int,
    num_sources: int = 40,
    num_sinks: int = 30,
    num_ties: int = 4,
    grid: float = 0.5,
) -> FeolView:
    """Stubs on a coarse grid, so equal scores and aligned rows abound.

    Owners are shared between sources and sinks (the walks skip a
    sink's own owner), nets have several branches, and about a quarter
    of the sinks are key pins.
    """
    rng = np.random.default_rng(seed)
    owners = [f"g{k}" for k in range(max(1, num_sources // 3))]

    def point() -> tuple[float, float]:
        x, y = rng.integers(0, 24, size=2)
        return float(x) * grid, float(y) * grid

    sources = []
    for index in range(num_sources):
        tie = index < num_ties
        x, y = point()
        owner = f"tie{index}" if tie else owners[int(rng.integers(len(owners)))]
        sources.append(
            SourceStub(
                stub_id=index,
                owner=owner,
                net=owner if tie else f"n{int(rng.integers(num_sources // 2 + 1))}",
                x=x,
                y=y,
                is_tie=tie,
                tie_value=int(rng.integers(2)) if tie else None,
                trunk_axis="x" if rng.random() < 0.5 else None,
            )
        )
    sinks = []
    for index in range(num_sinks):
        x, y = point()
        sinks.append(
            SinkStub(
                stub_id=num_sources + index,
                owner=owners[int(rng.integers(len(owners)))],
                pin_index=0,
                net="n0",
                x=x,
                y=y,
                has_escape=rng.random() >= 0.25,
                trunk_axis="x" if rng.random() < 0.5 else None,
            )
        )
    return FeolView(
        circuit_name=f"synthetic{seed}",
        split_layer=4,
        source_stubs=sources,
        sink_stubs=sinks,
    )


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("per_sink", [1, 2, 5, 16])
def test_synthetic_views_match_the_reference_walks(seed, per_sink, monkeypatch):
    view = _synthetic_view(seed, num_sources=60 + 20 * seed)
    _assert_same_candidates(view, per_sink)
    _assert_same_candidate_set(view, per_sink, monkeypatch)


def test_per_sink_at_least_the_source_count():
    view = _synthetic_view(1, num_sources=9, num_ties=2)
    for per_sink in (9, 16, 100):
        _assert_same_candidates(view, per_sink)


def test_no_sources_and_no_sinks():
    no_sources = dataclasses.replace(_synthetic_view(2), source_stubs=[])
    no_sinks = dataclasses.replace(_synthetic_view(2), sink_stubs=[])
    for view in (no_sources, no_sinks):
        _assert_same_candidates(view, 16)
    assert candidate_heap(no_sources, ProximityAttackConfig()) == []
    assert candidate_sources(no_sources)[2] == [[]] * len(no_sources.sink_stubs)
    assert candidate_sources(no_sinks)[2] == []
    assert build_candidates(no_sources).num_pairs == 0


def test_key_pins_without_tie_sources():
    view = _synthetic_view(3, num_ties=0)
    assert any(not sink.has_escape for sink in view.sink_stubs)
    _assert_same_candidates(view, 4)


def test_equal_scores_straddling_the_cut(monkeypatch):
    """A ring of equidistant sources across the cut, nearer and farther
    sources around it; per-sink caps that stop before, inside and past
    the ring (the last one reads past the shortlist and falls back)."""
    ring = [(3.0, 4.0), (-3.0, 4.0), (4.0, -3.0), (-4.0, -3.0), (5.0, 0.0)] * 16
    near = [(0.5 * k, 0.0) for k in range(1, 6)]
    far = [(20.0, float(k)) for k in range(20)]
    points = [(p, f"ring{k % 7}") for k, p in enumerate(ring)]
    points += [(p, f"near{k}") for k, p in enumerate(near)]
    points += [(p, f"far{k}") for k, p in enumerate(far)]
    sources = [
        SourceStub(
            stub_id=index,
            owner=f"g{index}",
            net=net,
            x=10.0 + dx,
            y=10.0 + dy,
            is_tie=False,
            tie_value=None,
            trunk_axis=None,
        )
        for index, ((dx, dy), net) in enumerate(points)
    ]
    sinks = [
        SinkStub(
            stub_id=100 + index,
            owner="sink",
            pin_index=0,
            net="ring0",
            x=10.0,
            y=10.0,
            has_escape=True,
        )
        for index in range(3)
    ]
    view = FeolView("ties", 4, source_stubs=sources, sink_stubs=sinks)
    calls = _count_fallbacks(monkeypatch)
    for per_sink in (2, 7, 12, 13):
        width = geometry.shortlist_width(per_sink)
        assert len(near) < width < len(near) + len(ring)
        _assert_same_candidates(view, per_sink)
        assert bool(calls) == (per_sink == 13)


def _count_fallbacks(monkeypatch) -> list[int]:
    """Record the sinks the shortlist walks again on a full row."""
    calls: list[int] = []
    rank = geometry._rank

    def counted(arrays, sinks, width, cap):
        if width == arrays.num_sources:
            calls.extend(sinks.tolist())
        return rank(arrays, sinks, width, cap)

    monkeypatch.setattr(geometry, "_rank", counted)
    return calls


def test_a_forced_fallback_walks_the_full_row(smoke_views, monkeypatch):
    calls = _count_fallbacks(monkeypatch)
    monkeypatch.setattr(geometry, "shortlist_width", lambda per_sink: 1)
    for view in smoke_views:
        _assert_same_candidates(_fresh(view), 4)
    assert len(calls) == sum(len(view.sink_stubs) for view in smoke_views)


# ----------------------------------------------------------------------
# Every paper view (slow)
# ----------------------------------------------------------------------
def _paper_views(budget: int) -> list[FeolView]:
    """The 12 Tables I/II views and the 28 Table III views."""
    tables = dataclasses.replace(
        current_profile().table_campaign(), max_candidates=budget
    )
    views = []
    for cell in tables.cells():
        layout = cell_layout(cell, design=locked_design(cell))
        views.append(layout.feol_view(cell.split_layer))
    common = dict(
        benchmarks=TABLE_III_BENCHMARKS,
        scenarios=("proximity",),
        split_layers=(4,),
        max_candidates=budget,
    )
    table3 = (
        AttackCampaignSpec(
            defenses=tuple(TABLE_III_DEFENSES), key_bits=(0,), **common
        ).cells()
        + AttackCampaignSpec(key_bits=(32,), **common).cells()
    )
    for acell in table3:
        cell = acell.cell
        design = locked_design(cell)
        layout = cell_layout(cell, design=design)
        if acell.defense is None:
            views.append(layout.feol_view(cell.split_layer))
        else:
            views.append(
                cell_defense(cell, acell.defense, design=design, layout=layout).view
            )
    assert len(views) == 40
    return views


@pytest.mark.slow
@pytest.mark.parametrize("budget", [250, 500])
def test_paper_views_match_the_reference_walks(budget):
    per_sinks = {
        ProximityAttackConfig().candidates_per_sink,
        DEFAULT_CANDIDATES_PER_SINK,
    }
    for view in _paper_views(budget):
        for per_sink in per_sinks:
            _assert_same_candidates(view, per_sink)
