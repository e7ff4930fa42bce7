"""Content-keyed on-disk cache for heavyweight experiment artifacts.

Locked netlists, layouts and attack runs are expensive to compute and
fully determined by their specification (benchmark profile, seeds, lock
and attack knobs).  The cache keys each artifact by the SHA-256 of its
canonicalised spec payload, so

* re-running any harness is free once the artifacts exist,
* independent processes (parallel campaign workers, separate pytest
  invocations, different harnesses, campaign-service workers) share one
  store, and
* *any* change to the spec — seed, key bits, split layer, scale,
  attack config — changes the key and transparently invalidates.

Entries are pickles written atomically (temp file, flushed and fsynced,
then ``os.replace``) so concurrent workers computing the same cell race
benignly: both produce identical bytes and the last rename wins, and a
crash mid-write can never leave a truncated artifact at the final path.
A worker killed *between* creating its temp file and renaming it leaves
an orphaned ``*.tmp`` behind; :meth:`ArtifactCache.cleanup_orphans`
sweeps those (age-gated so in-flight writers are spared) and the
campaign service runs the sweep on startup.  Corrupt or unreadable
entries are treated as misses and evicted.

Stats are tracked both in aggregate and per stage
(:class:`StageStats`: hits/misses/stores plus the wall-clock spent
inside ``create()`` on misses), which is what the service's
``/metrics`` endpoint exposes.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.utils.env import env_cache_dir

#: Bump to invalidate every cached artifact after a semantic change in
#: the flow (locking, layout or attack algorithms).
#: v2: HdOerReport gained the ``engine`` provenance field — pre-bump
#: pickles would restore without it and break ``asdict``/JSON dumps.
#: v3: AttackOutcome diagnostics gained the ``recovery`` (and, for
#: defended cells, ``defense``) blocks — the defense-matrix verdict
#: reads them, so pre-bump attack artifacts would fail it as stale.
#: v4: ISCAS-85 layouts clamp their regular nets to M2/M3 and a
#: ``key_bits=0`` lock is the unmodified design — pre-bump ISCAS
#: layouts and zero-bit locks would be served stale.
#: v5: AttackOutcome gained ``broken_nets``/``visible_nets`` (Tables
#: I/II now run as ``proximity`` attack cells) and the attack key gained
#: the cell's attack config; the ``run`` stage is gone.
#: v6: the layout, unprotected-layout and attack keys dropped their
#: layout- and SAT-engine fields.
CACHE_VERSION = 6

#: Suffix of in-flight write temp files (see :meth:`ArtifactCache.put`).
TMP_SUFFIX = ".tmp"

#: Orphaned temp files younger than this are presumed in-flight and
#: spared by :meth:`ArtifactCache.cleanup_orphans`.
ORPHAN_MAX_AGE_SECONDS = 3600.0


def _canonical(value: Any) -> Any:
    """Reduce *value* to JSON-serialisable canonical form.

    A dataclass becomes the dict of its fields, converted field by field
    (the same result as canonicalising ``asdict(value)``, without its
    deep copy).
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name)) for f in fields(value)
        }
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    raise TypeError(f"cannot canonicalise {type(value).__name__} for cache key")


def spec_key(payload: Mapping[str, Any]) -> str:
    """Stable SHA-256 hex digest of a spec payload."""
    rendered = json.dumps(
        _canonical({**payload, "cache_version": CACHE_VERSION}),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(rendered.encode()).hexdigest()


@dataclass
class StageStats:
    """Counters of one pipeline stage (lock/layout/defense/attack/...)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Wall-clock seconds spent *computing* this stage (inside the
    #: ``create()`` callbacks of cache misses).
    compute_seconds: float = 0.0

    def merge(self, other: "StageStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.compute_seconds += other.compute_seconds


@dataclass
class WorkerStats:
    """Counters of a process-resident worker artifact tier.

    The tier (:mod:`repro.runner.worker`) is an in-memory LRU keyed by
    the same ``spec_key`` content keys as this cache; its counters ride
    inside :class:`CacheStats` so campaign results and the service's
    ``/metrics`` surface them next to the disk-cache numbers.
    ``resident_*`` are gauges (what the tier pins *right now*), so
    merging takes their max where the counters sum.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    resident_bytes: int = 0
    resident_entries: int = 0

    def merge(self, other: "WorkerStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.evictions += other.evictions
        self.resident_bytes = max(self.resident_bytes, other.resident_bytes)
        self.resident_entries = max(
            self.resident_entries, other.resident_entries
        )


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`ArtifactCache` instance.

    Aggregate counters plus a per-stage breakdown; both survive the
    pickle hop back from pool workers, so campaign results (and the
    service's ``/metrics``) can attribute cost to individual stages.
    ``worker`` carries the worker-resident artifact tier's counters for
    the same execution slice.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    stages: dict[str, StageStats] = field(default_factory=dict)
    worker: WorkerStats = field(default_factory=WorkerStats)

    def stage(self, name: str) -> StageStats:
        return self.stages.setdefault(name, StageStats())

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        for name, stats in other.stages.items():
            self.stage(name).merge(stats)
        self.worker.merge(other.worker)


@dataclass
class ArtifactCache:
    """Pickle store under ``root`` with per-stage sub-directories."""

    root: Path = field(default_factory=env_cache_dir)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    _MISS = object()

    def _path(self, stage: str, key: str) -> Path:
        return self.root / stage / f"{key}.pkl"

    def get(self, stage: str, key: str) -> Any:
        """The cached object, or :attr:`MISS` when absent/unreadable."""
        path = self._path(stage, key)
        try:
            with path.open("rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            self.stats.stage(stage).misses += 1
            return self._MISS
        except (
            OSError,
            pickle.UnpicklingError,
            EOFError,
            AttributeError,
            ImportError,
        ):
            # Corrupt or stale entry (e.g. interrupted writer on a
            # non-atomic filesystem, or a renamed/moved class): evict
            # and miss.
            path.unlink(missing_ok=True)
            self.stats.misses += 1
            self.stats.stage(stage).misses += 1
            return self._MISS
        self.stats.hits += 1
        self.stats.stage(stage).hits += 1
        return value

    def put(self, stage: str, key: str, value: Any) -> None:
        """Atomically and durably store *value* under (*stage*, *key*).

        Write-to-temp + ``os.replace`` keeps readers from ever seeing a
        partial entry; the flush + fsync before the rename keeps a
        crash (or power loss) from replacing a good entry with a
        truncated one that would poison every cache rerun.
        """
        path = self._path(stage, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            mode="wb", dir=path.parent, suffix=TMP_SUFFIX, delete=False
        )
        try:
            with handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(handle.name, path)
        except BaseException:
            os.unlink(handle.name)
            raise
        self.stats.stores += 1
        self.stats.stage(stage).stores += 1

    def get_or_create(
        self, stage: str, payload: Mapping[str, Any], create: Callable[[], Any]
    ) -> Any:
        """Fetch the artifact for *payload*, computing and storing on miss."""
        key = spec_key(payload)
        value = self.get(stage, key)
        if value is not self._MISS:
            return value
        start = time.perf_counter()
        value = create()
        self.stats.stage(stage).compute_seconds += time.perf_counter() - start
        self.put(stage, key, value)
        return value

    def contains(self, stage: str, payload: Mapping[str, Any]) -> bool:
        return self._path(stage, spec_key(payload)).exists()

    def entry_count(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def size_bytes(self) -> int:
        if not self.root.exists():
            return 0
        return sum(p.stat().st_size for p in self.root.glob("*/*.pkl"))

    def orphan_count(self) -> int:
        """In-flight/abandoned ``*.tmp`` files currently under the root."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob(f"*/*{TMP_SUFFIX}"))

    def cleanup_orphans(
        self, max_age_seconds: float = ORPHAN_MAX_AGE_SECONDS
    ) -> int:
        """Delete temp files abandoned by killed writers.

        A worker killed between creating its temp file and the atomic
        rename leaves the temp behind forever.  Files younger than
        *max_age_seconds* are presumed to belong to a live writer and
        are spared (pass ``0`` to force-sweep everything, e.g. at
        service startup when no writers can exist yet).  Returns the
        number of files removed.
        """
        if not self.root.exists():
            return 0
        cutoff = time.time() - max_age_seconds
        removed = 0
        for path in self.root.glob(f"*/*{TMP_SUFFIX}"):
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    removed += 1
            except FileNotFoundError:
                continue  # another cleaner won the race; fine
        return removed

    def clear(self) -> int:
        """Delete every entry; returns the number of files removed."""
        removed = 0
        if self.root.exists():
            for path in self.root.glob("*/*.pkl"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed


def get_or_create(
    cache: ArtifactCache | None,
    stage: str,
    payload: Mapping[str, Any],
    create: Callable[[], Any],
) -> Any:
    """Cache-optional helper: compute directly when *cache* is ``None``."""
    if cache is None:
        return create()
    return cache.get_or_create(stage, payload, create)
