"""CI service-verification layer: HTTP path vs CLI path, bit for bit.

The ``service-smoke`` CI job boots a real server, then runs this layer
twice (cold, then cache-served).  Each run

1. executes the smoke campaign through the **CLI path** — a literal
   ``python -m repro.runner smoke --json`` subprocess (or
   ``attacks --smoke --json``) with its own cache directory;
2. submits the *same* spec to the server over **HTTP** and consumes
   the streamed NDJSON records;
3. asserts both result lists are **bit-identical** after stripping
   only the volatile wall-clock accounting
   (:func:`repro.runner.serialize.canonical_json`);
4. asserts from the server's ``/metrics`` delta that the submission
   moved the ``attack`` stage counters (both kinds run as attack
   cells), and with ``--expect-cached`` that it produced **zero** cache
   misses — the rerun was served entirely from the artifact store.

Exit status is the verdict, so the CI step is just this invocation.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

from repro.runner.profiles import attack_smoke_campaign, smoke_campaign
from repro.runner.serialize import canonical_json
from repro.service.client import ServiceClient

#: Keys the service stream adds on top of the CLI record shape.
_STREAM_ONLY_KEYS = ("event", "index")


def _log(message: str) -> None:
    print(f"[service-verify] {message}", flush=True)


def cli_reference_records(
    attacks: bool, cache_dir: Path, workers: int
) -> list[dict[str, Any]]:
    """Run the real CLI subprocess; returns its ``--json`` records."""
    with tempfile.TemporaryDirectory(prefix="verify-cli-") as tmp:
        out = Path(tmp) / "cli.json"
        command = [sys.executable, "-m", "repro.runner"]
        command += ["attacks", "--smoke"] if attacks else ["smoke"]
        command += [
            "--json",
            str(out),
            "--cache-dir",
            str(cache_dir),
            "--workers",
            str(workers),
        ]
        proc = subprocess.run(command, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            raise RuntimeError(
                f"CLI reference path failed with exit {proc.returncode}"
            )
        return json.loads(out.read_text())


def streamed_records(
    client: ServiceClient, spec
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Submit *spec*, stream to completion; records in spec order."""
    summary = client.submit(spec)
    results = []
    done: dict[str, Any] = {}
    for record in client.stream(summary["id"]):
        if record.get("event") == "result":
            results.append(record)
        elif record.get("event") == "error":
            raise RuntimeError(f"cell failed on the service: {record}")
        elif record.get("event") == "done":
            done = record["job"]
    results.sort(key=lambda r: r["index"])
    stripped = [
        {k: v for k, v in r.items() if k not in _STREAM_ONLY_KEYS}
        for r in results
    ]
    return stripped, done


def cache_problem(
    before: dict[str, Any], after: dict[str, Any], expect_cached: bool
) -> str | None:
    """What one pass's ``/metrics`` delta (*before* → *after*) gets wrong.

    Every pass must move the ``attack`` stage counters (campaign cells
    run as ``proximity`` attack cells, so both kinds count there) — a
    pass that shows none tested nothing, e.g. on a cacheless server.  A
    cached rerun must also add zero misses, overall and on that stage.
    """
    stage_before = before["cache"]["stages"].get("attack", {})
    stage_after = after["cache"]["stages"].get("attack", {})
    hits, misses = (
        stage_after.get(k, 0) - stage_before.get(k, 0)
        for k in ("hits", "misses")
    )
    if hits + misses == 0:
        return "the job moved no 'attack' stage counters"
    total_misses = after["cache"]["misses"] - before["cache"]["misses"]
    if expect_cached and (total_misses or misses):
        return (
            f"expected a cache-served rerun but saw {total_misses} "
            f"misses ({misses} on 'attack')"
        )
    return None


def run_verify(
    url: str,
    attacks: bool = False,
    cli_cache_dir: str | Path | None = None,
    workers: int = 2,
    expect_cached: bool = False,
) -> int:
    """The full verification pass; returns a process exit status."""
    spec = attack_smoke_campaign() if attacks else smoke_campaign()
    kind = "attacks" if attacks else "campaign"
    client = ServiceClient(url)
    client.wait_healthy()

    before = client.metrics()
    service_records, done = streamed_records(client, spec)
    after = client.metrics()
    if done.get("state") != "done":
        _log(f"FAIL: job finished in state {done.get('state')!r}")
        return 1
    _log(
        f"{kind} job {done['id']}: {len(service_records)} cells streamed "
        f"in {done['wall_seconds']:.1f}s"
    )

    with tempfile.TemporaryDirectory(prefix="verify-ref-") as fallback:
        cache_dir = Path(cli_cache_dir) if cli_cache_dir else Path(fallback)
        cli_records = cli_reference_records(attacks, cache_dir, workers)

    if len(cli_records) != len(service_records):
        _log(
            f"FAIL: CLI produced {len(cli_records)} records, service "
            f"streamed {len(service_records)}"
        )
        return 1
    if canonical_json(cli_records) != canonical_json(service_records):
        for index, (ours, theirs) in enumerate(
            zip(service_records, cli_records)
        ):
            if canonical_json([ours]) != canonical_json([theirs]):
                _log(f"FAIL: first divergence at record {index}:")
                _log(f"  service: {canonical_json([ours])[:400]}")
                _log(f"  cli:     {canonical_json([theirs])[:400]}")
                break
        return 1
    _log(f"PASS: HTTP stream bit-identical to the CLI path ({kind})")

    problem = cache_problem(before, after, expect_cached)
    if problem is not None:
        _log(f"FAIL: {problem}")
        return 1
    if expect_cached:
        _log("PASS: rerun served entirely from the artifact cache")
    return 0


def _worker_hits(metrics: dict[str, Any]) -> int:
    return metrics["cache"].get("worker", {}).get("hits", 0)


def run_warm_verify(url: str, attacks: bool = True) -> int:
    """Warm-worker pass: the same campaign twice on one live executor.

    Targets a **cache-disabled** server (``serve --no-cache``): without
    the disk tier, every artifact a second pass skips recomputing was
    served by the *worker-resident* runtime — the bit-identity of the
    two streamed result sets proves the reuse tier changes nothing,
    and the ``/metrics`` worker-cache counters prove it actually served
    (a cache-backed server would serve the attack stage from disk,
    so the pass could not tell what the tier saved).
    """
    spec = attack_smoke_campaign() if attacks else smoke_campaign()
    client = ServiceClient(url)
    client.wait_healthy()

    cold_metrics = client.metrics()
    cold_records, cold_done = streamed_records(client, spec)
    mid_metrics = client.metrics()
    warm_records, warm_done = streamed_records(client, spec)
    warm_metrics = client.metrics()
    for label, done in (("cold", cold_done), ("warm", warm_done)):
        if done.get("state") != "done":
            _log(f"FAIL: {label} job finished in state {done.get('state')!r}")
            return 1
    _log(
        f"cold pass {cold_done['wall_seconds']:.1f}s, "
        f"warm pass {warm_done['wall_seconds']:.1f}s "
        f"({len(warm_records)} cells each)"
    )

    if canonical_json(cold_records) != canonical_json(warm_records):
        for index, (cold, warm) in enumerate(
            zip(cold_records, warm_records)
        ):
            if canonical_json([cold]) != canonical_json([warm]):
                _log(f"FAIL: first cold/warm divergence at record {index}:")
                _log(f"  cold: {canonical_json([cold])[:400]}")
                _log(f"  warm: {canonical_json([warm])[:400]}")
                break
        return 1
    _log("PASS: warm-worker results bit-identical to the cold pass")

    disk_activity = (
        warm_metrics["cache"]["hits"] - cold_metrics["cache"]["hits"]
    ) + (warm_metrics["cache"]["misses"] - cold_metrics["cache"]["misses"])
    if disk_activity != 0:
        _log(
            f"FAIL: expected a cacheless server but the disk cache moved "
            f"({disk_activity} accesses) — warm hits would be ambiguous"
        )
        return 1
    warm_hits = _worker_hits(warm_metrics) - _worker_hits(mid_metrics)
    if warm_hits <= 0:
        _log(
            "FAIL: warm pass reported no worker-cache hits "
            f"(metrics: {warm_metrics['cache'].get('worker')})"
        )
        return 1
    _log(
        f"PASS: warm pass served {warm_hits} artifact(s) from the "
        "worker-resident tier"
    )
    return 0
