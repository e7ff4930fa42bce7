"""The persistent worker runtime: a process-resident artifact tier.

Campaign traffic is overwhelmingly repeats of hot configurations: every
sibling group of one lock re-reads the same locked design, a defense x
attack matrix re-reads one undefended layout dozens of times, and
consecutive service jobs hit the same (benchmark, split, key-size)
cells.  The on-disk artifact cache already deduplicates the *compute*,
but every task still pays deserialization — re-unpickling a multi-MB
lock or layout per sibling group, then recompiling the simulation
program the previous task just dropped.

:class:`WorkerRuntime` closes that gap: a content-keyed in-memory LRU,
one per worker process, that pins the **deserialized** artifacts —
locks (with their cached compiled programs), layouts and defended
views — across tasks, campaigns and service jobs.  Keys are the very
``spec_key`` stage keys of the disk cache, so the tier can only ever
serve the identical artifact the disk (or a recompute) would produce;
its presence is unobservable in results by construction.  The byte
budget comes from ``REPRO_WORKER_CACHE_MB`` (resolved *outside* cache
keys — capacity cannot change content), sized by pickled length —
the same bytes the disk cache would store.

The runtime is enabled explicitly, by the pool-worker initializer of
:class:`repro.runner.engine.CampaignExecutor` — never in the main
process — so serial in-process paths, benchmarks and tests keep their
historical behaviour unless they opt in.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from dataclasses import replace
from typing import Any, Callable, Mapping

from repro.utils.artifact_cache import WorkerStats, spec_key
from repro.utils.env import env_worker_cache_mb

__all__ = [
    "WorkerRuntime",
    "enable_worker_runtime",
    "active_runtime",
    "worker_cache_budget_bytes",
    "worker_tier",
    "worker_stats_snapshot",
    "worker_stats_delta",
]


class WorkerRuntime:
    """Content-keyed LRU of deserialized artifacts, byte-budgeted.

    Entries are keyed ``(stage, spec_key)`` and sized by their pickled
    length (measured once, at insert).  A value larger than the whole
    budget is never stored — it would only evict everything else to
    make room for an artifact too big to keep.
    """

    def __init__(self, budget_bytes: int) -> None:
        self.budget_bytes = int(budget_bytes)
        self.stats = WorkerStats()
        self._entries: OrderedDict[tuple[str, str], tuple[Any, int]] = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def resident_bytes(self) -> int:
        return self.stats.resident_bytes

    def get(self, stage: str, key: str) -> Any | None:
        """The pinned artifact, or ``None`` — artifacts are never None."""
        entry = self._entries.get((stage, key))
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end((stage, key))
        self.stats.hits += 1
        return entry[0]

    def put(
        self, stage: str, key: str, value: Any, nbytes: int | None = None
    ) -> None:
        """Pin *value*, evicting least-recently-used entries over budget."""
        if nbytes is None:
            nbytes = len(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))
        if nbytes > self.budget_bytes:
            return  # would displace the entire tier; not worth pinning
        full = (stage, key)
        old = self._entries.pop(full, None)
        if old is not None:
            self.stats.resident_bytes -= old[1]
        self._entries[full] = (value, nbytes)
        self.stats.stores += 1
        self.stats.resident_bytes += nbytes
        while self.stats.resident_bytes > self.budget_bytes:
            _, (_, evicted_bytes) = self._entries.popitem(last=False)
            self.stats.resident_bytes -= evicted_bytes
            self.stats.evictions += 1
        self.stats.resident_entries = len(self._entries)

    def keys(self) -> list[tuple[str, str]]:
        """Resident keys in LRU order (oldest first); for tests/inspection."""
        return list(self._entries)


#: The process-global runtime; ``None`` until a pool-worker initializer
#: (or a test) enables it.
_runtime: WorkerRuntime | None = None


def worker_cache_budget_bytes() -> int:
    """The ``REPRO_WORKER_CACHE_MB`` budget, resolved to bytes."""
    return env_worker_cache_mb() * 1024 * 1024


def enable_worker_runtime(budget_bytes: int | None = None) -> WorkerRuntime | None:
    """Install (or disable, for budget 0) the process-global runtime.

    Runs as the ProcessPool worker initializer; the parent resolves the
    budget and passes it through ``initargs`` so the knob is read once,
    in one process, regardless of how workers are started (forkserver
    reuses its server process across pools, so worker-side environment
    reads could observe a stale snapshot).
    """
    global _runtime
    if budget_bytes is None:
        budget_bytes = worker_cache_budget_bytes()
    _runtime = WorkerRuntime(budget_bytes) if budget_bytes > 0 else None
    return _runtime


def active_runtime() -> WorkerRuntime | None:
    return _runtime


def worker_tier(
    stage: str, payload: Mapping[str, Any], fetch: Callable[[], Any]
) -> Any:
    """Serve (*stage*, *payload*) from the runtime, else *fetch* and pin.

    The in-memory hook every heavyweight pipeline stage routes through:
    a no-op passthrough unless the process enabled its runtime.
    """
    runtime = _runtime
    if runtime is None:
        return fetch()
    key = spec_key(payload)
    value = runtime.get(stage, key)
    if value is None:
        value = fetch()
        runtime.put(stage, key, value)
    return value


def worker_stats_snapshot() -> WorkerStats:
    """A copy of the runtime's counters (zeros when disabled)."""
    if _runtime is None:
        return WorkerStats()
    return replace(_runtime.stats)


def worker_stats_delta(before: WorkerStats) -> WorkerStats:
    """Counter movement since *before*; gauges report the current state."""
    now = worker_stats_snapshot()
    return WorkerStats(
        hits=now.hits - before.hits,
        misses=now.misses - before.misses,
        stores=now.stores - before.stores,
        evictions=now.evictions - before.evictions,
        resident_bytes=now.resident_bytes,
        resident_entries=now.resident_entries,
    )
