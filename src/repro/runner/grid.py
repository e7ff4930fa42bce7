"""The grid compiler: campaign cells planned as a DAG over shared artifacts.

A campaign grid expands into cells whose stage payloads overlap heavily:
every split layer of one (benchmark, key config) shares the **lock**
artifact, and every seed/scenario variation over one split shares the
**layout** on top of it.  Executed one cell at a time, the overlap is
exploited only through the on-disk cache — each cell re-opens, re-reads
and re-unpickles the shared artifacts (or, cold and cacheless,
recomputes them outright).

:func:`plan_campaign` compiles the cell list into that DAG explicitly:
cells with equal (layout, defense) key prefixes form a
:class:`SiblingGroup` — defended attack cells additionally share the
**defense** artifact, so the defended FEOL view is computed once per
group — and groups with equal lock keys share a lock node above them.
:func:`run_fused_cells` then executes group by group instead of cell by
cell.  :func:`_run_group` is the **only** code that executes a
lock/attack cell — serial CLI, pool CLI, benchmarks and the campaign
service all reach it, the pool paths through :func:`execute_bundle`:

* the group's lock and layout are computed **once** and handed to every
  member in memory (``design=``/``layout=`` on the stage functions), so
  the compiled simulation programs cached on those circuit objects are
  reused across members instead of being re-pickled and recompiled;
* member HD/OER evaluations run inside
  :func:`repro.metrics.hd_oer.shared_reference_sweeps`, so the original
  machine's Monte-Carlo sweeps are simulated once per group and each
  sibling only pays for its own recovered netlist — one batched
  array-domain comparison per sibling against recorded reference rows;
* member attacks run inside
  :func:`repro.adversary.netflow.shared_flow_matches`, so siblings that
  hand the network-flow matcher an equal instance solve it once.

On top of the per-group fusion sits **affinity-aware dispatch**:
:func:`plan_bundles` collapses every sibling group sharing a lock into
one :class:`LockBundle`, and the pool path submits one lock-key-sorted
*bundle* per task, so the worker running a bundle resolves its lock
exactly once — from its resident tier (:mod:`repro.runner.worker`),
the disk cache, or by computing it — and threads the design through
the bundle's groups like the serial path does.  A bundle split to fill
idle workers resolves its lock once per half, the halves in parallel.
The parent computes nothing: every lock is resolved inside a cell,
concurrently across workers, and charged to that cell's cache
accounting.  The campaign service submits each unique cell as a
one-group bundle, so its results come from this same worker.

Everything is bit-identical to running each cell alone through the
stage functions: the fusion only moves *where* shared artifacts are
computed — never what is computed.
``tests/test_grid.py`` enforces the identity differentially against a
per-cell reference; ``benchmarks/bench_campaign.py`` tracks the
wall-clock win under the ``BENCH_campaign`` regression gate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.adversary.netflow import shared_flow_matches
from repro.metrics.hd_oer import shared_reference_sweeps
from repro.runner.engine import (
    AttackCellResult,
    CampaignExecutor,
    CellExecutionError,
    CellResult,
    _gather_fail_fast,
    _open_cache,
    _wrap_cell_error,
    default_workers,
)
from repro.runner.spec import AttackCellSpec, CellSpec
from repro.runner.stages import (
    LockedDesign,
    cell_attack,
    cell_defense,
    cell_layout,
    cell_run,
    defense_payload,
    layout_payload,
    lock_payload,
    locked_design,
)
from repro.runner.worker import worker_stats_delta, worker_stats_snapshot
from repro.utils.artifact_cache import CacheStats, StageStats, spec_key

__all__ = [
    "SiblingGroup",
    "GridPlan",
    "LockBundle",
    "plan_campaign",
    "plan_bundles",
    "execute_bundle",
    "run_fused_cells",
]

GridCell = CellSpec | AttackCellSpec


def _base_cell(cell: GridCell) -> CellSpec:
    """The plain cell carrying the lock/layout axes of *cell*."""
    return cell.cell if isinstance(cell, AttackCellSpec) else cell


@dataclass(frozen=True)
class SiblingGroup:
    """Cells sharing one layout (and therefore one lock) artifact.

    Defended attack cells also share one **defense** artifact:
    ``defense_key`` is the defense-stage cache key, or ``""`` for
    undefended members, so a defense x attack matrix splits each layout
    into one group per defense while scenario siblings stay fused.
    ``indices`` point into the planned cell list, preserving original
    order so fused results reassemble into exact spec order.
    """

    lock_key: str
    layout_key: str
    indices: tuple[int, ...]
    defense_key: str = ""

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class GridPlan:
    """The campaign DAG: cells grouped under shared lock/layout nodes."""

    cells: tuple[GridCell, ...]
    groups: tuple[SiblingGroup, ...]

    def group_cells(self, group: SiblingGroup) -> tuple[GridCell, ...]:
        return tuple(self.cells[i] for i in group.indices)

    @property
    def unique_locks(self) -> int:
        return len({g.lock_key for g in self.groups})

    def describe(self) -> str:
        """One-line shape summary for logs and benchmark output."""
        return (
            f"{len(self.cells)} cells -> {len(self.groups)} sibling "
            f"group(s) over {self.unique_locks} unique lock(s)"
        )


def plan_campaign(cells: Iterable[GridCell]) -> GridPlan:
    """Group *cells* by their (layout, defense) cache-key prefix,
    preserving first-seen group order and per-group member order (both
    deterministic functions of the input order, so plans are stable
    across processes).  Undefended cells carry an empty defense key, so
    grids without a defense axis plan exactly as before."""
    cells = tuple(cells)
    order: list[tuple[str, str]] = []
    members: dict[tuple[str, str], list[int]] = {}
    lock_of: dict[tuple[str, str], str] = {}
    for index, cell in enumerate(cells):
        base = _base_cell(cell)
        layout_key = spec_key(layout_payload(base))
        defense = getattr(cell, "defense", None)
        defense_key = (
            spec_key(defense_payload(base, defense))
            if defense is not None
            else ""
        )
        key = (layout_key, defense_key)
        if key not in members:
            order.append(key)
            members[key] = []
            lock_of[key] = spec_key(lock_payload(base))
        members[key].append(index)
    groups = tuple(
        SiblingGroup(
            lock_key=lock_of[key],
            layout_key=key[0],
            defense_key=key[1],
            indices=tuple(members[key]),
        )
        for key in order
    )
    return GridPlan(cells=cells, groups=groups)


# ---------------------------------------------------------------------------
# Group execution


def _stats_snapshot(cache) -> CacheStats:
    snap = CacheStats()
    snap.worker = worker_stats_snapshot()
    if cache is None:
        return snap
    stats = cache.stats
    snap.hits, snap.misses, snap.stores = stats.hits, stats.misses, stats.stores
    for name, stage in stats.stages.items():
        snap.stages[name] = StageStats(
            stage.hits, stage.misses, stage.stores, stage.compute_seconds
        )
    return snap


def _stats_delta(before: CacheStats, cache) -> CacheStats:
    """Cache + worker-tier activity since *before* — per-member attribution.

    Worker-tier counters move even cacheless (the tier serves artifacts
    the disk never saw), so they are tracked unconditionally.
    """
    delta = CacheStats()
    delta.worker = worker_stats_delta(before.worker)
    if cache is None:
        return delta
    after = cache.stats
    delta.hits = after.hits - before.hits
    delta.misses = after.misses - before.misses
    delta.stores = after.stores - before.stores
    for name, stage in after.stages.items():
        prior = before.stages.get(name, StageStats())
        moved = StageStats(
            hits=stage.hits - prior.hits,
            misses=stage.misses - prior.misses,
            stores=stage.stores - prior.stores,
            compute_seconds=stage.compute_seconds - prior.compute_seconds,
        )
        if moved.hits or moved.misses or moved.stores:
            delta.stages[name] = moved
    return delta


def _run_group(
    cells: Sequence[GridCell],
    cache,
    design: LockedDesign | None = None,
) -> tuple[list[CellResult | AttackCellResult], LockedDesign]:
    """Execute one group sharing lock/layout/defense/programs in memory.

    Returns the member results (group order) and the group's design so
    in-process callers can reuse it across groups sharing a lock.
    """
    results: list[CellResult | AttackCellResult] = []
    layout = None
    defended = None
    with shared_reference_sweeps(), shared_flow_matches():
        for cell in cells:
            base = _base_cell(cell)
            start = time.perf_counter()
            before = _stats_snapshot(cache)
            try:
                if design is None:
                    design = locked_design(base, cache)
                if layout is None:
                    layout = cell_layout(base, cache, design=design)
                if isinstance(cell, AttackCellSpec):
                    if cell.defense is not None and defended is None:
                        # Group members share one defense by plan
                        # construction, so the defended view is
                        # computed once and handed to every sibling.
                        defended = cell_defense(
                            base,
                            cell.defense,
                            cache,
                            design=design,
                            layout=layout,
                        )
                    outcome = cell_attack(
                        cell,
                        cache,
                        design=design,
                        layout=layout,
                        defended=(
                            defended if cell.defense is not None else None
                        ),
                    )
                    results.append(
                        AttackCellResult(
                            cell=cell,
                            outcome=outcome,
                            seconds=time.perf_counter() - start,
                            cache=_stats_delta(before, cache),
                        )
                    )
                else:
                    run = cell_run(cell, cache, design=design, layout=layout)
                    results.append(
                        CellResult(
                            cell=cell,
                            run=run,
                            seconds=time.perf_counter() - start,
                            cache=_stats_delta(before, cache),
                        )
                    )
            except CellExecutionError:
                raise
            except Exception as exc:
                raise _wrap_cell_error(cell, exc) from exc
    return results, design


# ---------------------------------------------------------------------------
# Affinity-aware dispatch: groups sharing a lock bundled into one task


@dataclass(frozen=True)
class LockBundle:
    """Every sibling group of one lock, dispatched as a single task.

    The executing worker threads the lock's design through its groups
    exactly like the serial path, so the lock is resolved once per
    bundle instead of once per group.
    """

    lock_key: str
    groups: tuple[SiblingGroup, ...]

    def __len__(self) -> int:
        return len(self.groups)

    @property
    def cell_count(self) -> int:
        return sum(len(group) for group in self.groups)


def plan_bundles(plan: GridPlan, slots: int | None = None) -> list[LockBundle]:
    """Bundle *plan*'s groups by lock key, lock-key-sorted (stable).

    The worker running a bundle resolves its lock once for every group.
    With *slots*, over-wide bundles are split (largest first, by cell
    count) until every pool slot has work or no bundle has more than
    one group left — a split bundle's halves resolve the lock in
    parallel on two workers, which still beats idle workers.  The
    result is a deterministic function of (plan, slots), so submission
    order is reproducible.
    """
    by_lock: dict[str, list[SiblingGroup]] = {}
    for group in plan.groups:
        by_lock.setdefault(group.lock_key, []).append(group)
    bundles = [
        LockBundle(lock_key=key, groups=tuple(groups))
        for key, groups in sorted(by_lock.items())
    ]
    if slots is not None:
        while len(bundles) < slots:
            widest = max(
                bundles, key=lambda b: (len(b.groups), b.cell_count, b.lock_key)
            )
            if len(widest.groups) < 2:
                break
            half = len(widest.groups) // 2
            bundles.remove(widest)
            bundles.append(LockBundle(widest.lock_key, widest.groups[:half]))
            bundles.append(LockBundle(widest.lock_key, widest.groups[half:]))
        bundles.sort(key=lambda b: (b.lock_key, b.groups[0].indices[0]))
    return bundles


def execute_bundle(
    group_cells: Sequence[Sequence[GridCell]],
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
) -> list[list[CellResult | AttackCellResult]]:
    """Pool worker: one lock bundle, group by group (module-level: picklable).

    The one worker that executes lock/attack cells on a pool — campaign
    bundles and the service's one-cell bundles alike.  Every group of a
    bundle shares one lock (:func:`plan_bundles` bundles by lock key and
    split halves keep it), so the design resolved for the first group
    is threaded through the rest in-process.
    """
    cache = _open_cache(cache_dir, use_cache)
    design = None
    out: list[list[CellResult | AttackCellResult]] = []
    for cells in group_cells:
        results, design = _run_group(cells, cache, design=design)
        out.append(results)
    return out


# ---------------------------------------------------------------------------
# Fused campaign driver


def run_fused_cells(
    cells: Iterable[GridCell],
    workers: int | None = None,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
    executor: CampaignExecutor | None = None,
) -> list[CellResult | AttackCellResult]:
    """Execute *cells* through the grid plan; results in input order.

    Serial (one worker or one group): groups run in-process, reusing
    designs across groups that share a lock.  Pool: one
    :func:`execute_bundle` task per :class:`LockBundle` — the worker
    running a bundle resolves its lock once for all of the bundle's
    groups (a split bundle's halves resolve it in parallel on two
    workers).

    *executor*, when given, must be a live :class:`CampaignExecutor`;
    its pool and cache policy are used and it is NOT shut down —
    consecutive campaigns on one executor reuse its warm workers (their
    resident artifact tiers).  Otherwise a private executor is created
    and torn down.
    """
    cells = tuple(cells)
    if not cells:
        return []
    plan = plan_campaign(cells)
    if executor is not None:
        if workers is None:
            workers = executor.workers
        cache_dir = executor.cache_dir
        use_cache = executor.use_cache
    count = workers if workers is not None else default_workers()
    count = max(1, min(count, len(plan.groups)))
    ordered: dict[int, CellResult | AttackCellResult] = {}

    if count == 1 and executor is None:
        cache = _open_cache(cache_dir, use_cache)
        designs: dict[str, LockedDesign] = {}
        for group in plan.groups:
            results, design = _run_group(
                plan.group_cells(group),
                cache,
                design=designs.get(group.lock_key),
            )
            designs[group.lock_key] = design
            for index, result in zip(group.indices, results):
                ordered[index] = result
        return [ordered[i] for i in range(len(cells))]

    own_executor = executor is None
    if own_executor:
        executor = CampaignExecutor(count, cache_dir, use_cache)
    try:
        bundles = plan_bundles(plan, slots=count)
        futures = [
            executor.submit(
                execute_bundle, [plan.group_cells(g) for g in bundle.groups]
            )
            for bundle in bundles
        ]
        outputs = _gather_fail_fast(
            futures, [plan.cells[b.groups[0].indices[0]] for b in bundles]
        )
        for bundle, output in zip(bundles, outputs):
            for group, results in zip(bundle.groups, output):
                for index, result in zip(group.indices, results):
                    ordered[index] = result
    finally:
        if own_executor:
            executor.shutdown()
    return [ordered[i] for i in range(len(cells))]
