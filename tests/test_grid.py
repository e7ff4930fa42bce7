"""Grid compiler: sibling planning, fused execution, bit-identity.

The contract under test is strict: fusion may change *where* shared
artifacts are computed — never what is computed.  Every comparison below is against a per-cell reference (each
cell run alone through its stage function, see
:func:`tests.conftest.per_cell_records`) in
:func:`repro.runner.serialize.canonical_json` form, the same canonical
form CI diffs, so any numeric drift in any metric fails loudly.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.runner.engine import (
    CellExecutionError,
    run_attack_campaign,
    run_campaign,
)
from repro.runner import stages
from repro.runner.grid import (
    _run_group,
    execute_bundle,
    plan_bundles,
    plan_campaign,
    run_fused_cells,
)
from repro.runner.profiles import default_defense_names
from repro.runner.serialize import canonical_json, result_record
from repro.runner.spec import AttackCampaignSpec, CellSpec, proximity_cell
from repro.utils.artifact_cache import CacheStats
from tests.conftest import per_cell_records

BASE = CellSpec(
    benchmark="random:i10-o5-g90",
    split_layer=4,
    key_bits=10,
    hd_patterns=512,
    max_candidates=60,
)

#: Three siblings over one layout plus one cell on its own layout —
#: two groups over a single lock.
GRID = [
    BASE,
    replace(BASE, hd_seed=6),
    replace(BASE, hd_seed=7),
    replace(BASE, split_layer=6),
]
#: The attack cells the grid compiler executes for GRID.
PROXIMITY = [proximity_cell(cell) for cell in GRID]

ATTACKS = AttackCampaignSpec(
    benchmarks=("random:i10-o5-g90",),
    scenarios=("netflow", "random"),
    split_layers=(4,),
    key_bits=(10,),
    hd_patterns=512,
    max_candidates=60,
)


#: A defense axis over two split layers: four groups (one per defense)
#: on each of two layouts.
MATRIX = AttackCampaignSpec(
    benchmarks=("random:i10-o5-g90",),
    scenarios=("proximity", "random"),
    defenses=default_defense_names(),
    split_layers=(4, 6),
    key_bits=(10,),
    hd_patterns=512,
    max_candidates=60,
)


def _canon(result) -> str:
    return canonical_json([result_record(r) for r in result.cells])


# ---------------------------------------------------------------------------
# Planning


def test_plan_groups_siblings_by_layout():
    plan = plan_campaign(PROXIMITY)
    assert len(plan.groups) == 2
    assert plan.groups[0].indices == (0, 1, 2)  # hd_seed is not a layout axis
    assert plan.groups[1].indices == (3,)  # split layer re-keys the layout
    assert plan.unique_locks == 1  # both splits lock identically
    assert "4 cells" in plan.describe()


def test_plan_groups_attack_scenarios_as_siblings():
    cells = ATTACKS.cells()
    plan = plan_campaign(cells)
    assert len(plan.groups) == 1
    assert plan.groups[0].indices == tuple(range(len(cells)))


def test_plan_preserves_input_order_and_distinct_locks():
    other = replace(BASE, key_bits=8)
    plan = plan_campaign(map(proximity_cell, [other, BASE]))
    assert [g.indices for g in plan.groups] == [(0,), (1,)]
    assert plan.unique_locks == 2


# ---------------------------------------------------------------------------
# Fused execution: bit-identity with the per-cell reference


@pytest.fixture(scope="module")
def reference():
    return per_cell_records(GRID)


def test_fused_serial_bit_identical(reference):
    fused = run_campaign(GRID, workers=1, use_cache=False)
    assert _canon(fused) == reference
    assert list(fused.runs()) == [cell.result_key for cell in GRID]


def test_fused_pool_bit_identical(reference, tmp_path):
    """Two workers over a real cache: each worker resolves its own lock."""
    fused = run_campaign(GRID, workers=2, cache_dir=tmp_path, use_cache=True)
    assert _canon(fused) == reference


def test_affinity_routing_bit_identical(tmp_path):
    """Serial groups vs cacheless lock-affine pool bundles: same records."""
    serial = run_fused_cells(PROXIMITY, workers=1, cache_dir=tmp_path)
    bundled = run_fused_cells(PROXIMITY, workers=2, use_cache=False)
    records = canonical_json([result_record(r) for r in bundled])
    assert records == canonical_json([result_record(r) for r in serial])
    assert records == per_cell_records(PROXIMITY)


def test_fused_attacks_bit_identical():
    cells = ATTACKS.cells()
    fused = run_attack_campaign(ATTACKS, workers=1, use_cache=False)
    assert _canon(fused) == per_cell_records(cells)
    assert list(fused.outcomes()) == [cell.result_key for cell in cells]


def test_fused_empty_grid():
    assert run_fused_cells([], workers=1, use_cache=False) == []


def test_fused_wraps_member_failure_with_cell_id():
    bad = proximity_cell(replace(BASE, benchmark="random:i6-o4-g40", key_bits=64))
    with pytest.raises(CellExecutionError) as excinfo:
        run_fused_cells([PROXIMITY[0], bad], workers=1, use_cache=False)
    assert excinfo.value.cell_id == bad.cell_id
    # The exception must survive a pool boundary intact.
    clone = pickle.loads(pickle.dumps(excinfo.value))
    assert clone.cell_id == bad.cell_id
    assert clone.detail == excinfo.value.detail


def test_pool_fails_fast_naming_the_failing_cell():
    """A worker raising mid-bundle surfaces as the failing cell's error."""
    # locks fine, layout raises
    bad = proximity_cell(replace(BASE, utilization=-1.0))
    with pytest.raises(CellExecutionError) as excinfo:
        run_fused_cells(PROXIMITY + [bad], workers=2, use_cache=False)
    assert excinfo.value.cell_id == bad.cell_id


# ---------------------------------------------------------------------------
# Layouts built once per grid


@pytest.fixture
def layout_builds(monkeypatch):
    """Count ``build_locked_layout`` calls made through the layout stage."""
    calls = []
    build = stages.build_locked_layout

    def counted(*args, **kwargs):
        calls.append(kwargs["split_layer"])
        return build(*args, **kwargs)

    monkeypatch.setattr(stages, "build_locked_layout", counted)
    return calls


def test_defense_axis_builds_each_layout_once(layout_builds):
    """Serial grid and in-process bundle alike: one build per layout,
    and the same records as each cell run alone."""
    cells = MATRIX.cells()
    plan = plan_campaign(cells)
    assert (len(plan.groups), len({g.layout_key for g in plan.groups})) == (8, 2)
    reference = per_cell_records(cells)
    layout_builds.clear()

    serial = run_fused_cells(cells, workers=1, use_cache=False)
    assert layout_builds == [4, 6]
    assert canonical_json([result_record(r) for r in serial]) == reference

    layout_builds.clear()
    [bundle] = plan_bundles(plan)
    output = execute_bundle(
        [plan.group_cells(g) for g in bundle.groups], use_cache=False
    )
    assert layout_builds == [4, 6]
    ordered = {
        index: result
        for group, results in zip(bundle.groups, output)
        for index, result in zip(group.indices, results)
    }
    bundled = [result_record(ordered[i]) for i in range(len(cells))]
    assert canonical_json(bundled) == reference


def test_defended_group_leaves_the_shared_layout_unchanged():
    cells = MATRIX.cells()
    plan = plan_campaign(cells)
    undefended, *defended = plan.groups[:4]
    assert undefended.defense_key == "" and all(g.defense_key for g in defended)
    _, design, layout = _run_group(plan.group_cells(undefended), None)
    before = pickle.dumps(layout)
    for group in defended:
        _run_group(plan.group_cells(group), None, design=design, layout=layout)
    assert pickle.dumps(layout) == before


# ---------------------------------------------------------------------------
# Cache accounting on the pool path


def _lock_stats(results):
    total = CacheStats()
    for result in results:
        total.merge(result.cache)
    return total.stage("lock")


def test_pool_charges_every_lock_lookup_to_a_cell(tmp_path):
    """Each unique lock is looked up once, inside a cell, cold and warm."""
    cells = [
        proximity_cell(c)
        for c in (BASE, replace(BASE, hd_seed=6), replace(BASE, key_bits=8))
    ]
    plan = plan_campaign(cells)
    assert plan.unique_locks == 2
    cold = _lock_stats(run_fused_cells(cells, workers=2, cache_dir=tmp_path))
    assert (cold.hits, cold.misses) == (0, plan.unique_locks)
    warm = _lock_stats(run_fused_cells(cells, workers=2, cache_dir=tmp_path))
    assert (warm.hits, warm.misses) == (plan.unique_locks, 0)
