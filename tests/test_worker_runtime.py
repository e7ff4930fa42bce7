"""Persistent worker runtime: the LRU tier, bundle planning, warm reuse.

Three contracts under test:

* the worker-resident artifact tier (:mod:`repro.runner.worker`) is a
  correct byte-budgeted LRU whose presence is unobservable in results
  (same content keys as the disk cache, passthrough when disabled);
* :func:`~repro.runner.grid.plan_bundles` groups sibling groups by lock
  key deterministically and splits bundles only to fill idle slots;
* a shared executor serves a repeat campaign from its workers' warm
  tiers with canonical-identical results.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.runner.worker as worker_module
from repro.runner.engine import CampaignExecutor
from repro.runner.grid import plan_bundles, plan_campaign, run_fused_cells
from repro.runner.serialize import canonical_json, result_record
from repro.runner.spec import CellSpec
from repro.runner.worker import (
    WorkerRuntime,
    active_runtime,
    enable_worker_runtime,
    worker_stats_delta,
    worker_stats_snapshot,
    worker_tier,
)
from repro.utils.env import env_worker_cache_mb

BASE = CellSpec(
    benchmark="random:i10-o5-g90",
    split_layer=4,
    key_bits=10,
    hd_patterns=512,
    max_candidates=60,
)

#: Two sibling groups over one lock (split layer re-keys the layout).
GRID = [
    BASE,
    replace(BASE, hd_seed=6),
    replace(BASE, split_layer=6),
]


@pytest.fixture(autouse=True)
def _restore_runtime():
    """Tests flip the process-global tier; never leak it across tests."""
    saved = worker_module._runtime
    yield
    worker_module._runtime = saved


def _canon(results) -> str:
    return canonical_json([result_record(r) for r in results])


# ---------------------------------------------------------------------------
# WorkerRuntime LRU semantics


def test_runtime_counts_hits_and_misses():
    runtime = WorkerRuntime(budget_bytes=1 << 20)
    assert runtime.get("lock", "a") is None
    runtime.put("lock", "a", "artifact", nbytes=10)
    assert runtime.get("lock", "a") == "artifact"
    assert (runtime.stats.hits, runtime.stats.misses) == (1, 1)
    assert runtime.stats.stores == 1
    assert runtime.stats.resident_entries == 1


def test_runtime_evicts_in_lru_order():
    runtime = WorkerRuntime(budget_bytes=30)
    runtime.put("s", "a", "A", nbytes=10)
    runtime.put("s", "b", "B", nbytes=10)
    runtime.put("s", "c", "C", nbytes=10)
    # Touch `a`: it becomes most-recent, so `b` is now the LRU head.
    assert runtime.get("s", "a") == "A"
    runtime.put("s", "d", "D", nbytes=10)
    assert runtime.keys() == [("s", "c"), ("s", "a"), ("s", "d")]
    assert runtime.get("s", "b") is None  # evicted, not `a`
    assert runtime.stats.evictions == 1


def test_runtime_enforces_byte_budget():
    runtime = WorkerRuntime(budget_bytes=25)
    for key, size in (("a", 10), ("b", 10), ("c", 10)):
        runtime.put("s", key, key.upper(), nbytes=size)
    assert runtime.resident_bytes <= 25
    assert runtime.stats.evictions == 1
    assert len(runtime) == 2


def test_runtime_rejects_oversized_value():
    runtime = WorkerRuntime(budget_bytes=10)
    runtime.put("s", "small", "x", nbytes=5)
    runtime.put("s", "huge", "y" * 100, nbytes=100)
    # The oversized value is dropped without displacing the tier.
    assert runtime.keys() == [("s", "small")]
    assert runtime.stats.evictions == 0
    assert runtime.stats.stores == 1


def test_runtime_replacing_a_key_does_not_double_count_bytes():
    runtime = WorkerRuntime(budget_bytes=100)
    runtime.put("s", "a", "old", nbytes=40)
    runtime.put("s", "a", "new", nbytes=60)
    assert runtime.resident_bytes == 60
    assert len(runtime) == 1
    assert runtime.get("s", "a") == "new"


def test_runtime_measures_pickled_size_when_unspecified():
    runtime = WorkerRuntime(budget_bytes=1 << 20)
    payload = np.arange(1024, dtype=np.int64)
    runtime.put("s", "arr", payload)
    assert runtime.resident_bytes > payload.nbytes  # pickle overhead


# ---------------------------------------------------------------------------
# The process-global hook


def test_worker_tier_is_passthrough_when_disabled():
    assert enable_worker_runtime(0) is None
    assert active_runtime() is None
    calls = []
    payload = {"stage": "lock", "x": 1}
    for _ in range(2):
        worker_tier("lock", payload, lambda: calls.append(1) or "value")
    assert len(calls) == 2  # fetched every time: no tier in this process


def test_worker_tier_serves_repeats_when_enabled():
    runtime = enable_worker_runtime(1 << 20)
    assert active_runtime() is runtime
    calls = []
    payload = {"stage": "lock", "x": 1}
    first = worker_tier("lock", payload, lambda: calls.append(1) or "value")
    second = worker_tier("lock", payload, lambda: calls.append(1) or "other")
    assert first == second == "value"
    assert len(calls) == 1
    assert runtime.stats.hits == 1 and runtime.stats.misses == 1


def test_worker_stats_delta_tracks_counters_and_gauges():
    enable_worker_runtime(1 << 20)
    payload = {"stage": "lock", "x": 1}
    worker_tier("lock", payload, lambda: "value")
    before = worker_stats_snapshot()
    worker_tier("lock", payload, lambda: "value")
    delta = worker_stats_delta(before)
    assert (delta.hits, delta.misses, delta.stores) == (1, 0, 0)
    assert delta.resident_entries == 1
    assert delta.resident_bytes > 0


def test_env_worker_cache_mb(monkeypatch):
    monkeypatch.delenv("REPRO_WORKER_CACHE_MB", raising=False)
    assert env_worker_cache_mb() == 256
    monkeypatch.setenv("REPRO_WORKER_CACHE_MB", "64")
    assert env_worker_cache_mb() == 64
    monkeypatch.setenv("REPRO_WORKER_CACHE_MB", "0")
    assert env_worker_cache_mb() == 0  # 0 is meaningful: tier disabled
    monkeypatch.setenv("REPRO_WORKER_CACHE_MB", "-1")
    with pytest.raises(ValueError):
        env_worker_cache_mb()


# ---------------------------------------------------------------------------
# Bundle planning


def test_plan_bundles_sorts_by_lock_key_and_keeps_groups():
    cells = GRID + [replace(BASE, key_bits=8)]  # a second lock
    plan = plan_campaign(cells)
    bundles = plan_bundles(plan)
    assert [b.lock_key for b in bundles] == sorted(b.lock_key for b in bundles)
    assert sum(len(b.groups) for b in bundles) == len(plan.groups)
    assert sum(b.cell_count for b in bundles) == len(cells)


def test_plan_bundles_splits_widest_bundle_to_fill_slots():
    plan = plan_campaign(GRID)  # one lock, two groups
    assert len(plan_bundles(plan)) == 1
    split = plan_bundles(plan, slots=2)
    assert len(split) == 2
    assert {len(b.groups) for b in split} == {1}
    assert split[0].groups[0].indices[0] < split[1].groups[0].indices[0]
    # Can't split past one group per bundle.
    assert len(plan_bundles(plan, slots=8)) == 2


# ---------------------------------------------------------------------------
# Warm workers on a shared executor: reuse with bit-identity


def test_shared_executor_serves_second_campaign_from_warm_tier(tmp_path):
    executor = CampaignExecutor(1, tmp_path, True)
    try:
        cold = run_fused_cells(GRID, executor=executor)
        warm = run_fused_cells(GRID, executor=executor)
    finally:
        executor.shutdown()
    # The worker's resident tier served the second campaign's artifacts
    # without changing a single bit of its results.
    assert sum(r.cache.worker.hits for r in warm) > 0
    assert _canon(warm) == _canon(cold)
