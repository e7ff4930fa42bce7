"""Job state machine and the concurrency-safe in-flight dedupe table.

A *job* is one submitted campaign (classic or adversary-scenario): its
spec expands into independent cells, each run on the service's shared
:class:`~repro.runner.engine.CampaignExecutor` as a one-cell
:func:`~repro.runner.grid.execute_bundle` task (the CLI's pool worker).
Two properties make the server safe for many concurrent tenants:

* **exactly-once computation** — cells are identified by the same
  content keys that key the artifact cache (``spec_key`` over the full
  ``attack`` stage payload), and an in-flight table maps each key to
  the single pool future computing it.  Identical cells submitted by
  any number of concurrent clients — a ``campaign`` job and an
  ``attacks`` job naming ``proximity`` on the same grid included —
  attach as *waiters* to that one future and all receive its result;
  only the first submission pays.
* **per-tenant records** — a waiter's record is rendered from its own
  cell spec and in its own job's record shape, so every job streams
  exactly the cells it submitted, in its own indexing.

Job states walk ``queued → running → done | failed | cancelled``;
transitions are validated (:meth:`Job.transition`) and terminal states
are sinks.  Cancellation detaches the job's waiters and cancels a
pool future only when no other job still waits on it — cancelling one
tenant can never kill another tenant's identical cell.
"""

from __future__ import annotations

import asyncio
import itertools
import secrets
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, AsyncIterator, Mapping

from repro.runner.engine import CampaignExecutor, CellResult
from repro.runner.grid import execute_bundle
from repro.runner.serialize import result_record
from repro.runner.spec import (
    AttackCampaignSpec,
    AttackCellSpec,
    CampaignSpec,
    CellSpec,
    expand,
    expand_attack,
    parse_spec_payload,
    proximity_cell,
    spec_payload,
)
from repro.runner.stages import attack_payload
from repro.service.metrics import ServiceMetrics
from repro.utils.artifact_cache import spec_key


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: Sink states: no transitions out.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)

_ALLOWED_TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    JobState.QUEUED: frozenset({JobState.RUNNING, JobState.CANCELLED}),
    JobState.RUNNING: frozenset(TERMINAL_STATES),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
}

#: Per-cell lifecycle (strings, not an enum: they appear in JSON).
CELL_PENDING = "pending"
CELL_DONE = "done"
CELL_FAILED = "failed"
CELL_CANCELLED = "cancelled"
_CELL_TERMINAL = frozenset({CELL_DONE, CELL_FAILED, CELL_CANCELLED})


class InvalidTransition(RuntimeError):
    """A job was asked to move along an edge the state machine lacks."""


def attack_cell(cell: CellSpec | AttackCellSpec) -> AttackCellSpec:
    """The attack cell a job cell executes as (a classic cell runs as
    its :func:`~repro.runner.spec.proximity_cell`)."""
    return proximity_cell(cell) if isinstance(cell, CellSpec) else cell


def cell_key(cell: CellSpec | AttackCellSpec) -> str:
    """The cell's content identity — exactly its artifact-cache key.

    Two cells with equal keys produce bit-identical results by the
    cache's own contract, which is what makes serving one computation
    to every waiter sound.
    """
    return spec_key(attack_payload(attack_cell(cell)))


@dataclass
class Job:
    """One submitted campaign and everything observed about it."""

    id: str
    kind: str
    spec: CampaignSpec | AttackCampaignSpec
    cells: tuple[CellSpec | AttackCellSpec, ...]
    state: JobState = JobState.QUEUED
    cell_states: list[str] = field(default_factory=list)
    #: Result/error records in completion order (stream replay buffer).
    records: list[dict[str, Any]] = field(default_factory=list)
    error: str | None = None
    cancel_requested: bool = False
    #: Wall-clock timestamps, *display only* — never subtracted.
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    #: Monotonic counterparts driving every duration computation: the
    #: wall clock can step (NTP, suspend/resume) between transitions,
    #: which would corrupt — even negate — ``wall_seconds``.
    created_monotonic: float = field(default_factory=time.monotonic, repr=False)
    started_monotonic: float | None = field(default=None, repr=False)
    finished_monotonic: float | None = field(default=None, repr=False)
    cond: asyncio.Condition = field(default_factory=asyncio.Condition)

    def __post_init__(self) -> None:
        if not self.cell_states:
            self.cell_states = [CELL_PENDING] * len(self.cells)

    # -- state machine ----------------------------------------------------

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def transition(self, new_state: JobState) -> None:
        """Move to *new_state*, enforcing the allowed edges."""
        if new_state not in _ALLOWED_TRANSITIONS[self.state]:
            raise InvalidTransition(
                f"job {self.id}: cannot go {self.state.value} -> "
                f"{new_state.value}"
            )
        self.state = new_state
        if new_state is JobState.RUNNING:
            self.started = time.time()
            self.started_monotonic = time.monotonic()
        if new_state in TERMINAL_STATES:
            self.finished = time.time()
            self.finished_monotonic = time.monotonic()

    def settled_cells(self) -> int:
        return sum(1 for s in self.cell_states if s in _CELL_TERMINAL)

    def summary(self) -> dict[str, Any]:
        """The JSON body of ``GET /jobs/{id}`` (and list rows)."""
        counts = {
            state: self.cell_states.count(state)
            for state in (CELL_PENDING, CELL_DONE, CELL_FAILED, CELL_CANCELLED)
        }
        return {
            "id": self.id,
            "kind": self.kind,
            "state": self.state.value,
            "cells": {"total": len(self.cells), **counts},
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            # Durations come from the monotonic pair: subtracting wall
            # timestamps would inherit any clock step between them.
            "wall_seconds": (
                self.finished_monotonic - self.started_monotonic
                if self.started_monotonic is not None
                and self.finished_monotonic is not None
                else None
            ),
            "error": self.error,
        }


@dataclass
class _Inflight:
    """One unique cell computation and the (job, index) pairs waiting."""

    key: str
    future: asyncio.Future
    waiters: list[tuple[Job, int]] = field(default_factory=list)


class JobManager:
    """Owns jobs, schedules cells, deduplicates identical in-flight work.

    Everything runs on the event loop; the executor resolves the
    asyncio futures it hands out from that same loop, so no manager
    state needs locking beyond the per-job condition that serialises
    record appends with stream readers.
    """

    def __init__(
        self,
        executor: CampaignExecutor,
        metrics: ServiceMetrics | None = None,
        max_jobs: int = 256,
    ) -> None:
        self.executor = executor
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.max_jobs = max_jobs
        self.jobs: dict[str, Job] = {}
        self._inflight: dict[str, _Inflight] = {}
        self._watchers: set[asyncio.Task] = set()
        self._counter = itertools.count(1)

    # -- submission -------------------------------------------------------

    def submit_payload(self, envelope: Mapping[str, Any]) -> Job:
        """Parse a kind-discriminated spec envelope and submit it."""
        return self.submit(parse_spec_payload(envelope))

    def submit(self, spec: CampaignSpec | AttackCampaignSpec) -> Job:
        """Expand *spec*, register the job, schedule every cell."""
        envelope = spec_payload(spec)  # validates the type
        if isinstance(spec, AttackCampaignSpec):
            cells: tuple = expand_attack(spec)
        else:
            cells = expand(spec)
        job = Job(
            id=f"j{next(self._counter):04d}-{secrets.token_hex(3)}",
            kind=envelope["kind"],
            spec=spec,
            cells=cells,
        )
        self.jobs[job.id] = job
        self._evict_old_jobs()
        self.metrics.jobs_submitted += 1
        job.transition(JobState.RUNNING)
        for index, cell in enumerate(cells):
            self._schedule(job, index, cell)
        return job

    def _evict_old_jobs(self) -> None:
        """Drop the oldest terminal jobs until at most ``max_jobs`` are
        held (or none is left to drop); the scan stops at the excess."""
        excess = len(self.jobs) - self.max_jobs
        if excess <= 0:
            return
        terminal = (j.id for j in self.jobs.values() if j.is_terminal)
        for job_id in list(itertools.islice(terminal, excess)):
            del self.jobs[job_id]

    def _schedule(self, job: Job, index: int, cell) -> None:
        key = cell_key(cell)
        self.metrics.cells_submitted += 1
        entry = self._inflight.get(key)
        if entry is None:
            acell = attack_cell(cell)
            future = self.executor.submit(execute_bundle, [[acell]], acell)
            entry = _Inflight(key=key, future=future)
            self._inflight[key] = entry
            self.metrics.cells_computed += 1
            watcher = asyncio.get_running_loop().create_task(
                self._watch(entry)
            )
            self._watchers.add(watcher)
            watcher.add_done_callback(self._watchers.discard)
        else:
            self.metrics.cells_deduped += 1
        entry.waiters.append((job, index))

    # -- completion -------------------------------------------------------

    async def _watch(self, entry: _Inflight) -> None:
        """Await one unique computation; deliver to every waiter."""
        try:
            [[result]] = await entry.future  # one group of one cell
        except asyncio.CancelledError:
            status, result, error = CELL_CANCELLED, None, None
        except Exception as exc:  # worker raised: a per-cell failure
            status, result = CELL_FAILED, None
            error = f"{type(exc).__name__}: {exc}"
        else:
            status, error = CELL_DONE, None
        self._inflight.pop(entry.key, None)
        if status == CELL_DONE:
            self.metrics.cells_completed += 1
            self.metrics.cache.merge(result.cache)
        elif status == CELL_FAILED:
            self.metrics.cells_failed += 1
        else:
            self.metrics.cells_cancelled += 1
        for job, index in list(entry.waiters):
            await self._deliver(job, index, status, result, error)

    async def _deliver(self, job, index, status, result, error) -> None:
        async with job.cond:
            if job.cell_states[index] in _CELL_TERMINAL:
                return  # e.g. already cancelled with the job
            job.cell_states[index] = status
            if status == CELL_DONE:
                # Render against *this* waiter's spec and record shape.
                cell = job.cells[index]
                record = result_record(
                    CellResult(cell, result.outcome, result.seconds, result.cache)
                    if isinstance(cell, CellSpec)
                    else replace(result, cell=cell)
                )
                record["event"] = "result"
                record["index"] = index
                job.records.append(record)
            elif status == CELL_FAILED:
                job.records.append(
                    {"event": "error", "index": index, "error": error}
                )
                if job.error is None:
                    job.error = f"cell {index}: {error}"
            self._maybe_finish(job)
            job.cond.notify_all()

    def _maybe_finish(self, job: Job) -> None:
        """Finalise the job once every cell reached a terminal state."""
        if job.is_terminal or job.settled_cells() < len(job.cells):
            return
        if any(s == CELL_FAILED for s in job.cell_states):
            job.transition(JobState.FAILED)
        elif job.cancel_requested or any(
            s == CELL_CANCELLED for s in job.cell_states
        ):
            job.transition(JobState.CANCELLED)
        else:
            job.transition(JobState.DONE)

    # -- cancellation -----------------------------------------------------

    async def cancel(self, job: Job) -> bool:
        """Cancel *job*'s pending cells; returns False if already over.

        Cells whose computation other jobs still wait on are merely
        detached; cells already computing run to completion in their
        worker but deliver nowhere.  The job reaches ``cancelled`` once
        every cell settles.
        """
        if job.is_terminal:
            return False
        job.cancel_requested = True
        pending = [
            (index, cell)
            for index, cell in enumerate(job.cells)
            if job.cell_states[index] == CELL_PENDING
        ]
        for index, cell in pending:
            entry = self._inflight.get(cell_key(cell))
            if entry is not None:
                entry.waiters = [
                    (j, i)
                    for j, i in entry.waiters
                    if not (j is job and i == index)
                ]
                if not entry.waiters:
                    entry.future.cancel()
            await self._deliver(job, index, CELL_CANCELLED, None, None)
        async with job.cond:
            # No pending cells at all (raced with the last delivery):
            # the finish check above may already have run; re-check.
            self._maybe_finish(job)
            job.cond.notify_all()
        return True

    # -- observation ------------------------------------------------------

    def cells_in_flight(self) -> int:
        return len(self._inflight)

    def jobs_by_state(self) -> dict[str, int]:
        counts = {state.value: 0 for state in JobState}
        for job in self.jobs.values():
            counts[job.state.value] += 1
        return counts

    def results_payload(self, job: Job) -> dict[str, Any]:
        """The JSON body of ``GET /jobs/{id}/results``."""
        records = sorted(
            (r for r in job.records if r.get("event") == "result"),
            key=lambda r: r["index"],
        )
        return {
            "job": job.summary(),
            "partial": not job.is_terminal,
            "results": records,
            "errors": [r for r in job.records if r.get("event") == "error"],
        }

    async def stream(self, job: Job) -> AsyncIterator[dict[str, Any]]:
        """Async-iterate records as cells complete; replays from zero.

        Yields every buffered record first (late subscribers see the
        full history), then live ones, and finally a ``done`` event
        with the job summary.
        """
        served = 0
        while True:
            async with job.cond:
                while served >= len(job.records) and not job.is_terminal:
                    await job.cond.wait()
                fresh = job.records[served:]
                served += len(fresh)
                finished = job.is_terminal and served >= len(job.records)
            for record in fresh:
                yield record
            if finished:
                yield {"event": "done", "job": job.summary()}
                return

    async def drain(self) -> None:
        """Await every in-flight watcher (orderly shutdown/tests)."""
        for task in list(self._watchers):
            try:
                await task
            except asyncio.CancelledError:
                pass
