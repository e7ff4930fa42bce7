"""Whole-campaign wall clock: grid fusion and the persistent worker runtime.

Two measurements, each pitting :func:`repro.runner.run_campaign` /
:func:`repro.runner.grid.run_fused_cells` against a reference built
here from the stage functions, all serial- or pool-cacheless so the
ratios are purely the optimisation under test:

1. **Fusion** — ten cells over a single lock/layout, differing only in
   ``hd_seed``, run once unfused (a serial loop calling
   :func:`repro.runner.stages.cell_attack` on each cell's
   ``proximity_cell``) and once fused (the
   grid compiler groups the siblings and executes them over shared
   in-memory artifacts and batched array sweeps).  Serial, so no pool
   effects.  Emits ``fuse_speedup``.

2. **Cross-group reuse** — a multi-lock, multi-group grid (several
   locks, several layout variants per lock, several seed members per
   layout) on the **pool** path, run once per-group with the worker
   runtime disabled (one single-group
   :func:`repro.runner.grid.execute_bundle` task per sibling group:
   every task re-derives its lock) and once through the campaign
   driver with the runtime on (one lock-key bundle per task; the
   worker resolves each lock once and its resident tier serves
   repeats).  Emits ``group_reuse_speedup`` plus the worker-cache
   counters of the warm pass.

Every pass must be **bit-identical** (canonical JSON equal, wall-clock
keys stripped) — the benchmark doubles as a differential test.  Emits
``BENCH_campaign.json`` gated by ``check_regression.py``:
``fuse_speedup`` and ``group_reuse_speedup`` may not regress below 60%
of baseline.

Usage::

    python benchmarks/bench_campaign.py --quick    # CI subset
    python benchmarks/bench_campaign.py            # full grids
    python benchmarks/bench_campaign.py --output out.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.runner import run_campaign  # noqa: E402
from repro.runner.engine import CampaignExecutor, CellResult  # noqa: E402
from repro.runner.grid import (  # noqa: E402
    execute_bundle,
    plan_campaign,
    run_fused_cells,
)
from repro.runner.serialize import canonical_json, result_record  # noqa: E402
from repro.runner.spec import (  # noqa: E402
    AttackCellSpec,
    CellSpec,
    proximity_cell,
)
from repro.runner.stages import cell_attack  # noqa: E402
from repro.utils.artifact_cache import CacheStats  # noqa: E402

#: Lock/layout-heavy base cell: the shared stages dominate, which is
#: exactly the shape campaign grids have (few locks, many seed cells).
BASE = CellSpec(
    benchmark="random:i14-o8-g200",
    split_layer=4,
    key_bits=16,
    hd_patterns=512,
    max_candidates=200,
)

#: Pool A/B workers: two, matching the CI runners the gate trends on.
POOL_WORKERS = 2


def sibling_grid(count: int) -> list[CellSpec]:
    """*count* cells over one lock/layout, differing only in hd_seed."""
    return [replace(BASE, hd_seed=BASE.hd_seed + i) for i in range(count)]


def multi_lock_grid(
    locks: int, layouts: int, members: int
) -> list[AttackCellSpec]:
    """A lock-heavy pool grid: *locks* x *layouts* sibling groups.

    Each benchmark seed is a distinct lock; each utilization variant a
    distinct layout (sibling group) under it; each hd_seed a group
    member.  This is the shape cross-group reuse targets: many groups
    per lock, so the per-group path re-derives each lock ``layouts``
    times while the bundled path resolves it once.
    """
    return [
        proximity_cell(
            replace(
                BASE,
                seed=BASE.seed + lock,
                utilization=round(0.62 + 0.04 * layout, 2),
                hd_seed=BASE.hd_seed + member,
            )
        )
        for lock in range(locks)
        for layout in range(layouts)
        for member in range(members)
    ]


def run_per_cell(cells: list[CellSpec]):
    """The unfused reference: each cell alone through ``cell_attack``."""
    start = time.perf_counter()
    results = []
    for cell in cells:
        cell_start = time.perf_counter()
        run = cell_attack(proximity_cell(cell))
        results.append(
            CellResult(cell, run, time.perf_counter() - cell_start, CacheStats())
        )
    return results, time.perf_counter() - start


def run_fused(cells: list[CellSpec]):
    start = time.perf_counter()
    result = run_campaign(cells, workers=1, use_cache=False)
    return result.cells, time.perf_counter() - start


def _per_group(cells: list[AttackCellSpec]) -> list:
    """One single-group bundle task per sibling group; cell order."""
    plan = plan_campaign(cells)
    with CampaignExecutor(POOL_WORKERS, use_cache=False) as executor:
        outputs = executor.map(
            execute_bundle,
            [[plan.group_cells(group)] for group in plan.groups],
            [plan.cells[group.indices[0]] for group in plan.groups],
        )
    ordered = {}
    for group, [results] in zip(plan.groups, outputs):
        ordered.update(zip(group.indices, results))
    return [ordered[i] for i in range(len(cells))]


def _bundled(cells: list[AttackCellSpec]) -> list:
    return run_fused_cells(cells, workers=POOL_WORKERS, use_cache=False)


def run_pool(cells: list[AttackCellSpec], runner, worker_cache_mb: int):
    """One cacheless pool pass; returns (results, seconds, merged stats)."""
    os.environ["REPRO_WORKER_CACHE_MB"] = str(worker_cache_mb)
    try:
        start = time.perf_counter()
        results = runner(cells)
        seconds = time.perf_counter() - start
    finally:
        os.environ.pop("REPRO_WORKER_CACHE_MB", None)
    stats = CacheStats()
    for result in results:
        stats.merge(result.cache)
    return results, seconds, stats


def verify(reference, candidate, label: str) -> None:
    """Candidate results must be canonical-JSON identical to reference."""
    want = canonical_json([result_record(r) for r in reference])
    got = canonical_json([result_record(r) for r in candidate])
    if want != got:
        raise AssertionError(f"{label} diverged from the reference results")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke subset (smaller sibling and pool grids)",
    )
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_campaign.json",
    )
    args = parser.parse_args(argv)

    # -- 1. serial fusion A/B --------------------------------------------
    cells = sibling_grid(6 if args.quick else 10)
    plan = plan_campaign(map(proximity_cell, cells))
    print(f"fusion plan: {plan.describe()}")

    unfused, unfused_seconds = run_per_cell(cells)
    fused, fused_seconds = run_fused(cells)
    verify(unfused, fused, "fused campaign")

    speedup = unfused_seconds / max(fused_seconds, 1e-9)
    print(f"{'cell':>28} {'hd_seed':>8} {'unfused s':>10} {'fused s':>8}")
    for a, b in zip(unfused, fused):
        print(
            f"{a.cell.cell_id:>28} {a.cell.hd_seed:>8} "
            f"{a.seconds:>10.3f} {b.seconds:>8.3f}"
        )
    print(
        f"unfused {unfused_seconds:.2f}s -> fused {fused_seconds:.2f}s "
        f"({speedup:.1f}x, bit-identical)"
    )

    # -- 2. pool cross-group reuse A/B -----------------------------------
    pool_cells = (
        multi_lock_grid(2, 3, 2) if args.quick else multi_lock_grid(3, 4, 2)
    )
    pool_plan = plan_campaign(pool_cells)
    print(f"\npool plan: {pool_plan.describe()}")

    per_group, per_group_seconds, _ = run_pool(
        pool_cells, _per_group, worker_cache_mb=0
    )
    warm, warm_seconds, warm_stats = run_pool(
        pool_cells, _bundled, worker_cache_mb=256
    )
    verify(per_group, warm, "lock-bundled campaign")

    reuse_speedup = per_group_seconds / max(warm_seconds, 1e-9)
    print(
        f"per-group pool {per_group_seconds:.2f}s -> bundles+runtime "
        f"{warm_seconds:.2f}s ({reuse_speedup:.1f}x, bit-identical)"
    )
    print(
        f"worker tier: {warm_stats.worker.hits} hits, "
        f"{warm_stats.worker.misses} misses, "
        f"{warm_stats.worker.stores} stores, "
        f"{warm_stats.worker.evictions} evictions"
    )

    payload = {
        "workload": "sibling campaign grids: fusion and cross-group reuse",
        "quick": args.quick,
        "plan": plan.describe(),
        "cells": len(cells),
        "sibling_groups": len(plan.groups),
        "unfused_wall_seconds": unfused_seconds,
        "fused_wall_seconds": fused_seconds,
        "fuse_speedup": speedup,
        "pool_plan": pool_plan.describe(),
        "pool_cells": len(pool_cells),
        "pool_groups": len(pool_plan.groups),
        "pool_locks": pool_plan.unique_locks,
        "pool_workers": POOL_WORKERS,
        "per_group_wall_seconds": per_group_seconds,
        "affinity_wall_seconds": warm_seconds,
        "group_reuse_speedup": reuse_speedup,
        "worker_cache_hits": warm_stats.worker.hits,
        "worker_cache_misses": warm_stats.worker.misses,
        "worker_cache_stores": warm_stats.worker.stores,
        "worker_cache_evictions": warm_stats.worker.evictions,
        "bit_identical": True,  # verify() raised otherwise
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
