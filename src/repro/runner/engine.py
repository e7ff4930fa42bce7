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
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

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
from repro.runner.worker import serve_tasks, worker_cache_budget_bytes
from repro.utils.artifact_cache import ArtifactCache, CacheStats
from repro.utils.env import env_int

if TYPE_CHECKING:
    # Imported where used, not here: the forkserver preloads this module
    # into every pool worker, which runs no event loop (asyncio would add
    # ~2.5 MB to each).
    import asyncio


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
) -> dict[str, dict[str, float]]:
    """Run one Fig. 5 cost cell (module-level: picklable to workers)."""
    return layout_cost_runs(cell, _open_cache(cache_dir, use_cache))


@dataclass(eq=False)
class _Task:
    future: asyncio.Future
    call: tuple  # (worker, task, cache_dir, use_cache)
    cell: object  # named in the error if the worker dies


@dataclass(eq=False)
class _Worker:
    process: multiprocessing.process.BaseProcess
    conn: Connection  # the parent's end of the duplex pipe
    task: _Task | None = None


class CampaignExecutor:
    """A long-lived cell executor: worker processes shared across campaigns.

    The service keeps one executor across every job it serves, so its
    workers (their imports and resident tiers) stay warm; the pooled CLI
    and benchmarks drive one per campaign through :meth:`map`.  The cache
    directory and policy are fixed per executor, like one runner call.

    Up to ``workers`` processes from :func:`_mp_context` start on demand,
    each with one duplex pipe and running
    :func:`repro.runner.worker.serve_tasks`, which enables its resident
    tier with the ``REPRO_WORKER_CACHE_MB`` budget resolved here (a
    forkserver snapshots the environment once).  :meth:`submit` hands
    tasks to idle workers in order, and the submitting event loop reads
    each result with ``loop.add_reader``: no thread runs beside it.  A
    queued task whose future is cancelled never runs; a running one
    finishes and frees its worker.  A worker that dies (EOF on its pipe)
    fails only its task, with a :class:`CellExecutionError` naming the
    task's cell, and the next task respawns it (:meth:`stats`).
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
        self.restarts = 0
        self._context = _mp_context()
        self._budget = worker_cache_budget_bytes()
        self._procs: list[_Worker] = []
        self._queue: deque[_Task] = deque()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closed = False

    def submit(self, worker: Callable, task, cell) -> asyncio.Future:
        """Queue ``worker(task, cache_dir, use_cache)``; its future on the
        running loop.  *cell* names the task if its worker dies."""
        import asyncio

        if self._closed:
            raise RuntimeError("the executor is shut down")
        loop = asyncio.get_running_loop()
        if loop is not self._loop:
            self._bind(loop)
        future = loop.create_future()
        call = (worker, task, self.cache_dir, self.use_cache)
        self._queue.append(_Task(future, call, cell))
        self._dispatch()
        return future

    def map(self, worker: Callable, tasks: Sequence, cells: Sequence) -> list:
        """Every task's result, in order, from a fresh event loop.

        Fails fast: the first error (in submission order) cancels every
        other task — a queued one never runs — and raises a
        :class:`CellExecutionError` naming *cells[i]*, the cell of the
        failing ``tasks[i]``.
        """
        import asyncio

        async def gather() -> list:
            futures = [self.submit(worker, t, c) for t, c in zip(tasks, cells)]
            if futures:
                await asyncio.wait(futures, return_when=asyncio.FIRST_EXCEPTION)
            for future, cell in zip(futures, cells):
                exc = future.exception() if future.done() else None
                if exc is not None:
                    for other in futures:
                        other.cancel()
                    if isinstance(exc, CellExecutionError):
                        raise exc
                    raise _wrap_cell_error(cell, exc) from exc
            return [f.result() for f in futures]

        return asyncio.run(gather())

    def stats(self) -> dict[str, int]:
        """Live workers, dead workers retired so far, tasks queued."""
        return {
            "workers": sum(w.process.is_alive() for w in self._procs),
            "restarts": self.restarts,
            "queued": sum(not t.future.done() for t in self._queue),
        }

    def shutdown(self) -> None:
        """Cancel every task, close every pipe and join the workers (an
        idle one exits on EOF, a busy one after its task)."""
        self._closed = True
        for task in [*self._queue, *(w.task for w in self._procs if w.task)]:
            task.future.cancel()
        self._queue.clear()
        for worker in self._procs:
            self._unwatch(worker)
            worker.conn.close()
        for worker in self._procs:
            worker.process.join()
        self._procs.clear()

    def __enter__(self) -> "CampaignExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _bind(self, loop: asyncio.AbstractEventLoop) -> None:
        """Watch every pipe from *loop* (each :meth:`map` runs a new one),
        retiring workers that died unwatched."""
        for worker in list(self._procs):
            self._unwatch(worker)
            if not worker.process.is_alive():
                self._retire(worker)
        self._loop = loop
        for worker in self._procs:
            loop.add_reader(worker.conn.fileno(), self._receive, worker)

    def _unwatch(self, worker: _Worker) -> None:
        if self._loop is not None and not self._loop.is_closed():
            self._loop.remove_reader(worker.conn.fileno())

    def _dispatch(self) -> None:
        """Hand queued tasks, oldest first, to idle workers, spawning one
        while fewer than ``workers`` are up."""
        while self._queue:
            if self._queue[0].future.done():  # cancelled while queued
                self._queue.popleft()
                continue
            worker = next((w for w in self._procs if w.task is None), None)
            if worker is None:
                if len(self._procs) >= self.workers:
                    return
                conn, child = self._context.Pipe()
                process = self._context.Process(
                    target=serve_tasks, args=(child, self._budget), daemon=True
                )
                process.start()
                child.close()
                worker = _Worker(process, conn)
                self._procs.append(worker)
                self._loop.add_reader(conn.fileno(), self._receive, worker)
            worker.task = self._queue.popleft()
            try:
                worker.conn.send(worker.task.call)
            except OSError:  # it died before its EOF was read
                self._retire(worker)

    def _receive(self, worker: _Worker) -> None:
        try:
            ok, value = worker.conn.recv()
        except (EOFError, OSError):
            self._retire(worker)
        else:
            task, worker.task = worker.task, None
            if not task.future.done():
                if ok:
                    task.future.set_result(value)
                else:
                    task.future.set_exception(value)
        self._dispatch()

    def _retire(self, worker: _Worker) -> None:
        """Drop a dead worker and fail its task, naming the task's cell."""
        self._unwatch(worker)
        worker.conn.close()
        worker.process.join(timeout=1.0)
        self._procs.remove(worker)
        self.restarts += 1
        if worker.task is not None and not worker.task.future.done():
            worker.task.future.set_exception(
                CellExecutionError(
                    _cell_id(worker.task.cell),
                    f"worker process {worker.process.pid} died "
                    f"(exit code {worker.process.exitcode})",
                )
            )


def _map_cells(
    worker: Callable,
    cells: Iterable[CellSpec],
    workers: int | None,
    cache_dir: str | Path | None,
    use_cache: bool,
) -> list:
    """One task per cell through *worker* (Fig. 5's cost cells)."""
    cells = list(cells)
    count = workers if workers is not None else default_workers()
    count = max(1, min(count, len(cells) or 1))
    if count == 1:
        results = []
        for cell in cells:
            try:
                results.append(worker(cell, cache_dir, use_cache))
            except CellExecutionError:
                raise
            except Exception as exc:
                raise _wrap_cell_error(cell, exc) from exc
        return results
    with CampaignExecutor(count, cache_dir, use_cache) as executor:
        return executor.map(worker, cells, cells)


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
) -> dict[str, dict[str, dict[str, float]]]:
    """Fig. 5 grid: per-benchmark cost deltas for Prelift and each split."""
    cells = list(cells)
    rows = _map_cells(execute_cost_cell, cells, workers, cache_dir, use_cache)
    return {cell.benchmark: row for cell, row in zip(cells, rows)}
