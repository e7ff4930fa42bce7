"""Concurrency stress for the shared artifact cache (CI ``cache-stress``).

Self-hosts a real service (:class:`~repro.service.server.ServiceThread`
on an ephemeral port, fresh temporary cache directory), then releases
*N* OS processes through a barrier so they submit the **same** campaign
over HTTP at the same instant.  Afterwards it asserts the whole
exactly-once contract:

* every client streamed bit-identical results (same canonical digest);
* ``/metrics`` shows each unique cell **computed exactly once** per
  cold round (``cells.computed == unique`` and attack-stage
  ``misses == unique``) while every other submission joined the
  in-flight computation (``cells.deduped``);
* a second round (``--rounds 2``) is served **entirely from the
  cache** — zero new misses;
* the cache directory holds no partial/corrupt artifacts: no ``*.tmp``
  orphans survive, and every stored artifact unpickles cleanly.

Any violated invariant raises :class:`StressFailure`; the CLI maps
that to a non-zero exit for CI.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import pickle
import tempfile
from pathlib import Path
from typing import Any

from repro.runner.serialize import canonical_json
from repro.runner.spec import CampaignSpec, spec_payload
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.server import ServiceThread
from repro.utils.artifact_cache import TMP_SUFFIX

#: Four unique cells (2 benchmarks x 2 split layers), each small enough
#: that a round finishes in seconds yet slow enough that concurrent
#: submissions genuinely overlap in flight.
STRESS_SPEC = CampaignSpec(
    benchmarks=("random:i10-o5-g90", "random:i12-o6-g110"),
    split_layers=(4, 6),
    key_bits=(10,),
    scale=1.0,
    hd_patterns=512,
    max_candidates=60,
)


class StressFailure(AssertionError):
    """An exactly-once / integrity invariant did not hold."""


def _log(message: str) -> None:
    print(f"[cache-stress] {message}", flush=True)


def _client_worker(url, envelope, barrier, queue, client_id) -> None:
    """One concurrent tenant: submit at the barrier, stream, digest."""
    try:
        client = ServiceClient(url)
        barrier.wait(timeout=120)
        summary = client.submit(envelope)
        records = []
        state = None
        for record in client.stream(summary["id"]):
            if record.get("event") == "result":
                records.append(record)
            elif record.get("event") == "error":
                raise RuntimeError(f"cell failed: {record}")
            elif record.get("event") == "done":
                state = record["job"]["state"]
        records.sort(key=lambda r: r["index"])
        stripped = [
            {k: v for k, v in r.items() if k not in ("event", "index")}
            for r in records
        ]
        digest = hashlib.sha256(
            canonical_json(stripped).encode()
        ).hexdigest()
        queue.put(
            {
                "client": client_id,
                "state": state,
                "cells": len(records),
                "digest": digest,
            }
        )
    except Exception as exc:  # surface the failure, don't hang the join
        queue.put({"client": client_id, "error": f"{type(exc).__name__}: {exc}"})


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise StressFailure(message)


def _audit_cache_dir(cache_dir: Path) -> int:
    """No orphaned temp files; every artifact unpickles. Returns count."""
    orphans = sorted(cache_dir.glob(f"*/*{TMP_SUFFIX}"))
    _check(
        not orphans,
        f"partial artifacts left behind: {[str(o) for o in orphans]}",
    )
    artifacts = sorted(p for p in cache_dir.glob("*/*") if p.is_file())
    for path in artifacts:
        try:
            with path.open("rb") as handle:
                pickle.load(handle)
        except Exception as exc:
            raise StressFailure(f"corrupt artifact {path}: {exc}") from exc
    return len(artifacts)


def _run_round(
    url: str, clients: int, envelope: dict[str, Any]
) -> list[dict[str, Any]]:
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(clients)
    queue = context.Queue()
    processes = [
        context.Process(
            target=_client_worker,
            args=(url, envelope, barrier, queue, index),
        )
        for index in range(clients)
    ]
    for process in processes:
        process.start()
    reports = [queue.get(timeout=600) for _ in range(clients)]
    for process in processes:
        process.join(timeout=60)
    errors = [r for r in reports if "error" in r]
    _check(not errors, f"client failures: {errors}")
    return reports


def run_stress(
    clients: int = 6, workers: int = 2, rounds: int = 2
) -> int:
    """The full stress scenario; returns a process exit status."""
    if clients < 2:
        raise ValueError("need at least 2 concurrent clients")
    unique = len(STRESS_SPEC.cells())
    envelope = spec_payload(STRESS_SPEC)
    with tempfile.TemporaryDirectory(prefix="cache-stress-") as tmp:
        cache_dir = Path(tmp) / "cache"
        config = ServiceConfig(
            port=0, workers=workers, cache_dir=cache_dir
        )
        with ServiceThread(config) as server:
            url = server.url
            _log(
                f"service at {url}: {clients} clients x {rounds} rounds, "
                f"{unique} unique cells"
            )
            probe = ServiceClient(url)
            for round_index in range(rounds):
                before = probe.metrics()
                reports = _run_round(url, clients, envelope)
                after = probe.metrics()

                digests = {r["digest"] for r in reports}
                _check(
                    all(r["state"] == "done" for r in reports),
                    f"non-done jobs: {reports}",
                )
                _check(
                    all(r["cells"] == unique for r in reports),
                    f"short streams: {reports}",
                )
                _check(
                    len(digests) == 1,
                    f"clients disagree on results: {digests}",
                )

                computed = (
                    after["cells"]["computed"] - before["cells"]["computed"]
                )
                deduped = (
                    after["cells"]["deduped"] - before["cells"]["deduped"]
                )
                attack_misses = after["cache"]["stages"]["attack"][
                    "misses"
                ] - before["cache"]["stages"].get("attack", {}).get("misses", 0)
                _check(
                    computed + deduped == unique * clients,
                    f"round {round_index}: {unique * clients} cell "
                    f"submissions should split into scheduled + deduped, "
                    f"saw {computed} + {deduped}",
                )
                if round_index == 0:
                    # The hard exactly-once guarantee: every submission
                    # overlaps at the barrier, so each unique cell is
                    # scheduled once (in-flight dedupe) and *computed*
                    # once (one attack-stage miss per unique cell).
                    _check(
                        computed == unique,
                        f"cold round: expected {unique} scheduled "
                        f"computations, saw {computed}",
                    )
                    _check(
                        attack_misses == unique,
                        f"cold round: expected {unique} attack-stage misses "
                        f"(one per unique cell), saw {attack_misses}",
                    )
                else:
                    # Warm rounds finish in milliseconds, so in-flight
                    # overlap is timing-dependent; the contract is that
                    # nothing is ever recomputed.
                    _check(
                        attack_misses == 0,
                        f"round {round_index}: expected a cache-served "
                        f"round, saw {attack_misses} new attack-stage misses",
                    )
                artifacts = _audit_cache_dir(cache_dir)
                _log(
                    f"round {round_index}: computed={computed} "
                    f"deduped={deduped} attack_misses={attack_misses} "
                    f"artifacts={artifacts} digest={digests.pop()[:12]}"
                )
    _log(
        f"PASS: {unique} unique cells computed exactly once per cold "
        f"round across {clients} concurrent clients"
    )
    return 0
