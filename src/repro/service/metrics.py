"""The ``/metrics`` counters of one campaign-service instance.

All mutation happens on the service's event loop (worker processes
report their cache stats back through the cell results), so plain
counters suffice — no locks.  The snapshot is JSON-ready and exposes
per-stage cache behaviour (hits/misses/stores and compute wall-clock,
from :class:`~repro.utils.artifact_cache.StageStats`), cell dedupe
accounting, job-state counts, the worker pool (live workers, restarts,
queued tasks) and HTTP connection reuse; the CI
``cache-stress`` job asserts exactly-once computation from these
numbers.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.utils.artifact_cache import CacheStats


@dataclass
class ServiceMetrics:
    """Monotonic counters since service start."""

    started: float = field(default_factory=time.time)
    jobs_submitted: int = 0
    #: Cells across all submissions (dedicated + deduped waiters).
    cells_submitted: int = 0
    #: Cells actually scheduled on the worker pool (unique work).
    cells_computed: int = 0
    #: Cells that joined an identical in-flight computation instead.
    cells_deduped: int = 0
    #: Scheduled computations that finished / failed / were cancelled.
    cells_completed: int = 0
    cells_failed: int = 0
    cells_cancelled: int = 0
    #: Orphaned cache temp files swept at startup.
    orphans_swept: int = 0
    #: HTTP connections accepted and requests read in full on them;
    #: fewer connections than requests means clients kept them alive.
    http_connections: int = 0
    http_requests: int = 0
    #: Cache behaviour merged from every worker (per-stage inside).
    cache: CacheStats = field(default_factory=CacheStats)

    def snapshot(
        self,
        cells_in_flight: int,
        jobs_by_state: dict[str, int],
        pool: dict[str, int],
    ) -> dict[str, Any]:
        """The JSON body of ``GET /metrics``; *pool* is the executor's
        :meth:`~repro.runner.engine.CampaignExecutor.stats`."""
        return {
            "uptime_seconds": time.time() - self.started,
            "jobs": {"submitted": self.jobs_submitted, **jobs_by_state},
            "cells": {
                "submitted": self.cells_submitted,
                "computed": self.cells_computed,
                "deduped": self.cells_deduped,
                "completed": self.cells_completed,
                "failed": self.cells_failed,
                "cancelled": self.cells_cancelled,
                "in_flight": cells_in_flight,
            },
            "pool": pool,
            "cache": asdict(self.cache),
            "orphans_swept": self.orphans_swept,
            "http": {
                "connections": self.http_connections,
                "requests": self.http_requests,
            },
        }
