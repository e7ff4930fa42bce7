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
from repro.runner.grid import plan_campaign, run_fused_cells
from repro.runner.serialize import canonical_json, result_record
from repro.runner.spec import AttackCampaignSpec, CellSpec
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

ATTACKS = AttackCampaignSpec(
    benchmarks=("random:i10-o5-g90",),
    scenarios=("netflow", "random"),
    split_layers=(4,),
    key_bits=(10,),
    hd_patterns=512,
    max_candidates=60,
)


def _canon(result) -> str:
    return canonical_json([result_record(r) for r in result.cells])


# ---------------------------------------------------------------------------
# Planning


def test_plan_groups_siblings_by_layout():
    plan = plan_campaign(GRID)
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
    plan = plan_campaign([other, BASE])
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


def test_affinity_routing_bit_identical(reference, tmp_path):
    """Serial groups vs cacheless lock-affine pool bundles: same records."""
    serial = run_fused_cells(GRID, workers=1, cache_dir=tmp_path)
    bundled = run_fused_cells(GRID, workers=2, use_cache=False)
    records = canonical_json([result_record(r) for r in bundled])
    assert records == canonical_json([result_record(r) for r in serial])
    assert records == reference


def test_fused_attacks_bit_identical():
    cells = ATTACKS.cells()
    fused = run_attack_campaign(ATTACKS, workers=1, use_cache=False)
    assert _canon(fused) == per_cell_records(cells)
    assert list(fused.outcomes()) == [cell.result_key for cell in cells]


def test_fused_empty_grid():
    assert run_fused_cells([], workers=1, use_cache=False) == []


def test_fused_wraps_member_failure_with_cell_id():
    bad = replace(BASE, benchmark="random:i6-o4-g40", key_bits=64)
    with pytest.raises(CellExecutionError) as excinfo:
        run_fused_cells([BASE, bad], workers=1, use_cache=False)
    assert excinfo.value.cell_id == bad.cell_id
    # The exception must survive a pool boundary intact.
    clone = pickle.loads(pickle.dumps(excinfo.value))
    assert clone.cell_id == bad.cell_id
    assert clone.detail == excinfo.value.detail


def test_pool_fails_fast_naming_the_failing_cell():
    """A worker raising mid-bundle surfaces as the failing cell's error."""
    bad = replace(BASE, utilization=-1.0)  # locks fine, layout raises
    with pytest.raises(CellExecutionError) as excinfo:
        run_fused_cells(GRID + [bad], workers=2, use_cache=False)
    assert excinfo.value.cell_id == bad.cell_id


# ---------------------------------------------------------------------------
# Cache accounting on the pool path


def _lock_stats(results):
    total = CacheStats()
    for result in results:
        total.merge(result.cache)
    return total.stage("lock")


def test_pool_charges_every_lock_lookup_to_a_cell(tmp_path):
    """Each unique lock is looked up once, inside a cell, cold and warm."""
    cells = [BASE, replace(BASE, hd_seed=6), replace(BASE, key_bits=8)]
    plan = plan_campaign(cells)
    assert plan.unique_locks == 2
    cold = _lock_stats(run_fused_cells(cells, workers=2, cache_dir=tmp_path))
    assert (cold.hits, cold.misses) == (0, plan.unique_locks)
    warm = _lock_stats(run_fused_cells(cells, workers=2, cache_dir=tmp_path))
    assert (warm.hits, warm.misses) == (plan.unique_locks, 0)
