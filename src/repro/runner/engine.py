"""The campaign engine: parallel cell execution over a shared cache.

``run_campaign`` / ``run_attack_campaign`` expand a campaign spec (or
take an explicit cell list) and hand the cells to the grid compiler
(:mod:`repro.runner.grid`), the one executor of cells — for the serial
CLI, the pool CLI, the benchmarks and the campaign service alike.  This
module owns what they share: the result dataclasses, the long-lived
:class:`CampaignExecutor` pool and the fail-fast collection of pool
futures.  Three properties make the parallelism safe:

* cells are **independent** — each carries its full configuration and
  derives every random stream from its own explicit seeds, so results
  are bit-identical whether cells run serially, in any order, or on any
  number of workers;
* heavyweight intermediates go through the **content-keyed on-disk
  cache**, so sibling cells (two splits of one benchmark share a locked
  netlist) and later campaigns reuse them — concurrent workers that
  race on the same stage both compute identical bytes and the atomic
  store keeps the last writer, which is benign;
* workers return plain picklable dataclasses; no shared mutable state.

``workers=1`` (or a single-CPU machine) degrades to an in-process
serial loop with the same results.  Fig. 5's cost cells compute a
different stage and run one task per cell (:func:`run_cost_campaign`).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.adversary.evaluate import AttackOutcome
from repro.runner.spec import (
    AttackCampaignSpec,
    AttackCellSpec,
    CampaignSpec,
    CellSpec,
    expand,
    expand_attack,
    proximity_cell,
)
from repro.runner.stages import layout_cost_runs
from repro.runner.worker import enable_worker_runtime, worker_cache_budget_bytes
from repro.utils.artifact_cache import ArtifactCache, CacheStats
from repro.utils.env import env_int


@dataclass
class CellResult:
    """One executed Tables I/II cell: spec, ``proximity`` outcome, accounting."""

    cell: CellSpec
    run: AttackOutcome
    seconds: float
    cache: CacheStats


@dataclass
class CampaignResult:
    """All cells of one campaign, in deterministic spec order."""

    cells: list[CellResult] = field(default_factory=list)
    wall_seconds: float = 0.0

    def runs(
        self,
    ) -> dict[tuple[str, int, int, int, int, int], AttackOutcome]:
        """Metrics keyed by :attr:`CellSpec.result_key`.

        The key carries every seed — (benchmark, split_layer, key_bits,
        seed, hd_seed, postprocess_seed) — so grid cells that differ
        only in a seed cannot silently overwrite each other.
        """
        return {r.cell.result_key: r.run for r in self.cells}

    def cache_stats(self) -> CacheStats:
        total = CacheStats()
        for result in self.cells:
            total.merge(result.cache)
        return total


@dataclass
class AttackCellResult:
    """One executed attack cell: spec, outcome, execution accounting."""

    cell: AttackCellSpec
    outcome: AttackOutcome
    seconds: float
    cache: CacheStats


@dataclass
class AttackCampaignResult:
    """All attack cells of one scenario campaign, in spec order."""

    cells: list[AttackCellResult] = field(default_factory=list)
    wall_seconds: float = 0.0

    def outcomes(
        self,
    ) -> dict[tuple[str, int, int, int, int, int, str], AttackOutcome]:
        """Keyed by :attr:`AttackCellSpec.result_key`.

        The base cell's :attr:`CellSpec.result_key` (seeds included)
        with the scenario name appended last, so duplicate-benchmark
        grids differing only in a seed stay distinct.
        """
        return {r.cell.result_key: r.outcome for r in self.cells}

    def cache_stats(self) -> CacheStats:
        total = CacheStats()
        for result in self.cells:
            total.merge(result.cache)
        return total


class CellExecutionError(RuntimeError):
    """A cell's worker raised; carries which cell failed and the cause.

    *detail* is the rendered original error (raise sites additionally
    chain the live exception with ``raise ... from``).  ``__reduce__``
    keeps the exception picklable across the pool boundary — the
    default reduction would re-call ``__init__`` with the formatted
    message as ``cell_id``.
    """

    def __init__(self, cell_id: str, detail: str = "") -> None:
        message = f"cell {cell_id} failed"
        super().__init__(f"{message}: {detail}" if detail else message)
        self.cell_id = cell_id
        self.detail = detail

    def __reduce__(self):
        return (type(self), (self.cell_id, self.detail))


def _wrap_cell_error(cell, exc: BaseException) -> CellExecutionError:
    """A :class:`CellExecutionError` naming *cell* with *exc* rendered."""
    return CellExecutionError(_cell_id(cell), f"{type(exc).__name__}: {exc}")


def default_workers() -> int:
    """``REPRO_WORKERS`` override, else every CPU *this process* may use.

    ``os.cpu_count()`` reports the machine, not the process: under a
    cgroup quota or a pinned affinity mask (both routine in CI
    containers) it oversubscribes the pool.  Prefer the affinity-aware
    counts and fall back only where the platform lacks them.
    """
    override = env_int("REPRO_WORKERS")
    if override is not None:
        return max(1, override)
    counter = getattr(os, "process_cpu_count", None)  # Python 3.13+
    if counter is not None:
        return counter() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def _mp_context() -> multiprocessing.context.BaseContext:
    """Explicit start method for worker pools: forkserver, else spawn.

    The platform default (fork on POSIX through 3.13) is unsafe here:
    the campaign service forks from inside an asyncio process, and
    fork-after-thread deadlocks are exactly the hazard that made 3.14
    change the default.  Forkserver keeps POSIX startup cheap (workers
    fork from a clean server process that preloads the grid compiler,
    home of the pool workers, and with it this module); spawn is the
    portable fallback.
    """
    methods = multiprocessing.get_all_start_methods()
    if "forkserver" in methods:
        context = multiprocessing.get_context("forkserver")
        context.set_forkserver_preload(["repro.runner.grid"])
        return context
    return multiprocessing.get_context("spawn")


def _cell_id(cell) -> str:
    """Human-readable identity of any cell kind, for error reports."""
    cell_id = getattr(cell, "cell_id", None)
    return cell_id if cell_id is not None else repr(cell)


def _open_cache(cache_dir: str | Path | None, use_cache: bool):
    if not use_cache:
        return None
    if cache_dir is None:
        return ArtifactCache()
    return ArtifactCache(Path(cache_dir))


def execute_cost_cell(
    cell: CellSpec,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
    split_layers: tuple[int, ...] = (4, 6),
) -> dict[str, dict[str, float]]:
    """Run one Fig. 5 cost cell (module-level: picklable to workers)."""
    cache = _open_cache(cache_dir, use_cache)
    return layout_cost_runs(cell, cache, split_layers=split_layers)


class CampaignExecutor:
    """A long-lived cell executor: one ProcessPool shared across campaigns.

    The one-shot :func:`run_campaign` path spins a pool up per call;
    the campaign service instead keeps a single executor alive across
    every job it serves, so worker processes (and their warm imports)
    are reused and per-cell futures can be awaited as they complete.
    Cells stay pure functions of their spec, so sharing the pool never
    couples jobs — the cache directory and policy are fixed per
    executor, exactly like one runner invocation.

    Every worker boots with its resident artifact tier enabled
    (:mod:`repro.runner.worker`): the parent resolves the
    ``REPRO_WORKER_CACHE_MB`` budget once and ships it through the pool
    initializer — worker-side environment reads would be unreliable
    under forkserver, whose server process snapshots the environment
    when the *first* pool starts.  Workers resolve every artifact
    themselves (tier, disk cache or compute); the parent only submits
    tasks, so a service keeping one executor across jobs serves repeat
    traffic from those warm tiers.
    """

    def __init__(
        self,
        workers: int | None = None,
        cache_dir: str | Path | None = None,
        use_cache: bool = True,
    ) -> None:
        self.workers = max(1, workers if workers is not None else default_workers())
        self.cache_dir = None if cache_dir is None else Path(cache_dir)
        self.use_cache = use_cache
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=_mp_context(),
            initializer=enable_worker_runtime,
            initargs=(worker_cache_budget_bytes(),),
        )

    def submit(self, worker: Callable, task, **kwargs):
        """Submit *task* (a cell or a bundle) through *worker*; its future."""
        return self._pool.submit(
            worker, task, self.cache_dir, self.use_cache, **kwargs
        )

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        self._pool.shutdown(wait=wait, cancel_futures=cancel_pending)

    def __enter__(self) -> "CampaignExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def _gather_fail_fast(futures: list, cells: list) -> list:
    """Results of *futures* in order; *cells[i]* names ``futures[i]``.

    Fails fast: stops at the first worker error, cancels every
    not-yet-started sibling and raises a :class:`CellExecutionError`
    naming the failing cell (in-order ``f.result()`` collection would
    block on unrelated futures and lose the failing cell's identity).
    """
    done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
    failed = next((f for f in done if f.exception() is not None), None)
    if failed is not None:
        for future in not_done:
            future.cancel()
        exc = failed.exception()
        if isinstance(exc, CellExecutionError):
            raise exc
        raise _wrap_cell_error(cells[futures.index(failed)], exc) from exc
    return [f.result() for f in futures]


def _map_cells(
    worker: Callable,
    cells: Iterable[CellSpec],
    workers: int | None,
    cache_dir: str | Path | None,
    use_cache: bool,
    **kwargs,
) -> list:
    """One task per cell through *worker* (Fig. 5's cost cells)."""
    cells = list(cells)
    count = workers if workers is not None else default_workers()
    count = max(1, min(count, len(cells) or 1))
    if count == 1:
        results = []
        for cell in cells:
            try:
                results.append(worker(cell, cache_dir, use_cache, **kwargs))
            except CellExecutionError:
                raise
            except Exception as exc:
                raise _wrap_cell_error(cell, exc) from exc
        return results
    with CampaignExecutor(count, cache_dir, use_cache) as executor:
        futures = [executor.submit(worker, c, **kwargs) for c in cells]
        return _gather_fail_fast(futures, cells)


def run_campaign(
    spec: CampaignSpec | Iterable[CellSpec],
    workers: int | None = None,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
) -> CampaignResult:
    """Execute every cell of *spec*; results in deterministic spec order.

    Each cell runs as its :func:`~repro.runner.spec.proximity_cell`
    through :func:`run_attack_campaign`.
    """
    cells = expand(spec)
    attacks = run_attack_campaign(
        map(proximity_cell, cells), workers, cache_dir, use_cache
    )
    return CampaignResult(
        cells=[
            CellResult(cell, r.outcome, r.seconds, r.cache)
            for cell, r in zip(cells, attacks.cells)
        ],
        wall_seconds=attacks.wall_seconds,
    )


def run_attack_campaign(
    spec: AttackCampaignSpec | Iterable[AttackCellSpec],
    workers: int | None = None,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
) -> AttackCampaignResult:
    """Execute every scenario cell of *spec*, grouped and cached.

    Scenario cells over one (benchmark, split, key_bits, seeds) base
    are siblings and share their locked design, layout and compiled
    programs in memory.
    """
    from repro.runner.grid import run_fused_cells

    cells = expand_attack(spec)
    start = time.perf_counter()
    results = run_fused_cells(cells, workers, cache_dir, use_cache)
    return AttackCampaignResult(
        cells=results, wall_seconds=time.perf_counter() - start
    )


def run_cost_campaign(
    cells: Iterable[CellSpec],
    workers: int | None = None,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
    split_layers: tuple[int, ...] = (4, 6),
) -> dict[str, dict[str, dict[str, float]]]:
    """Fig. 5 grid: per-benchmark cost deltas for Prelift and each split."""
    cells = list(cells)
    rows = _map_cells(
        execute_cost_cell,
        cells,
        workers,
        cache_dir,
        use_cache,
        split_layers=split_layers,
    )
    return {cell.benchmark: row for cell, row in zip(cells, rows)}
