"""The ``service-jobs`` workload: a closed-loop client against a live service.

``python -m repro.runner serve --workers 2 --no-cache`` runs in a child
process; this process is the one client, driving it in a closed loop
over two connections (each sends its next job only after the previous
one's ``done`` event).  Jobs cycle through the lock seeds in
``workloads.SERVICE_LOCK_SEEDS`` while every job's cell is new, and
every ``SERVICE_DUP_EVERY``-th job is submitted twice back to back, so
the duplicate attaches to the in-flight original.

Pool workers cannot be wrapped from outside, so this workload records
client-side spans only (submit, first result, done) plus ``/metrics``
counter deltas.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed
import workloads
from repro.service.client import ServiceClient, ServiceError

CONNECTIONS = 2
WORKERS = 2


def _warmup_spec():
    """A tiny two-cell job: submitted at once, its cells start both workers."""
    from repro.runner.spec import CampaignSpec

    return CampaignSpec(
        benchmarks=("random:i10-o5-g80",),
        split_layers=(4, 6),
        key_bits=(8,),
        hd_patterns=64,
        max_candidates=20,
    )


def _descendants(root: int) -> list[int]:
    """Every live process below *root* (server, forkserver, workers)."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    found, stack = [], [root]
    while stack:
        for child in children.get(stack.pop(), []):
            found.append(child)
            stack.append(child)
    return found


def _peak_rss_mb(pids: list[int]) -> float:
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


class Server:
    """One ``serve`` child process; :meth:`stop` ends it and its pool."""

    def __init__(self, root: Path, env: dict[str, str]) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.runner", "serve",
             "--host", "127.0.0.1", "--port", "0",
             "--workers", str(WORKERS), "--no-cache"],
            cwd=root, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            url = self._await_listening()
            self.client = ServiceClient(url, timeout=120.0)
            self.client.wait_healthy(timeout=60.0, poll=0.02)
            job = self.client.submit(_warmup_spec())
            done = list(self.client.stream(job["id"]))[-1]
            if done["job"]["state"] != "done":
                raise RuntimeError(f"warm-up job ended {done['job']['state']}")
            #: Server launch to /healthz answering with both workers up.
            self.setup = (start, time.perf_counter())
        except BaseException:
            self.stop()
            raise
        self._log = threading.Thread(target=self.proc.stderr.read, daemon=True)
        self._log.start()

    def _await_listening(self) -> str:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            line = self.proc.stderr.readline()
            if not line:
                break
            if "listening on " in line:
                return line.split("listening on ", 1)[1].split()[0]
        raise RuntimeError(f"service did not start (exit {self.proc.poll()})")

    def stop(self) -> None:
        """SIGTERM the server, then wait until every descendant is gone."""
        pids = _descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        deadline = time.monotonic() + 30.0
        while pids and time.monotonic() < deadline:
            pids = [p for p in pids if Path(f"/proc/{p}").exists()]
            time.sleep(0.05)
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def _metrics_delta(before: dict, after: dict) -> dict[str, float]:
    cells = {k: after["cells"][k] - before["cells"][k] for k in after["cells"]}
    worker = {
        k: after["cache"]["worker"][k] - before["cache"]["worker"][k]
        for k in ("hits", "misses")
    }
    return {
        "cells_computed": cells["computed"],
        "cells_deduped": cells["deduped"],
        "dedupe_ratio": cells["deduped"] / max(1, cells["submitted"]),
        "worker_hits": worker["hits"],
        "worker_hit_ratio": worker["hits"] / max(1, worker["hits"] + worker["misses"]),
    }


def _client_loop(server: Server, seed: int, lane: int, jobs: list) -> None:
    """One connection's closed loop; appends one timing entry per job."""
    client = server.client
    entries = []
    for index in range(lane, workloads.SERVICE_JOBS, CONNECTIONS):
        spec = workloads.service_job(seed, index)
        copies = 2 if index % workloads.SERVICE_DUP_EVERY == workloads.SERVICE_DUP_EVERY - 1 else 1
        submitted = []
        try:
            for copy in range(copies):
                t0 = time.perf_counter()
                job = client.submit(spec)
                submitted.append((f"job{index}" + ("/dup" if copy else ""), t0,
                                  time.perf_counter() - t0, job["id"]))
        except (OSError, ServiceError) as exc:
            entries.append({"name": f"job{index}", "index": index,
                            "state": f"submit failed: {exc}"})
            continue
        for name, t0, submit_s, job_id in submitted:
            first = None
            records = []
            try:
                for record in client.stream(job_id):
                    if first is None and record.get("event") == "result":
                        first = time.perf_counter() - t0
                    records.append(record)
            except (OSError, ServiceError) as exc:
                entries.append({"name": name, "index": index,
                                "state": f"stream failed: {exc}"})
                continue
            entries.append({
                "name": name,
                "index": index,
                "start": t0,
                "latency_s": time.perf_counter() - t0,
                "submit_s": submit_s,
                "first_result_s": first,
                "state": records[-1]["job"]["state"],
                "results": sorted(
                    (r for r in records if r.get("event") == "result"),
                    key=lambda r: r["index"],
                ),
            })
    jobs.extend(entries)


def run_pass(server: Server, seed: int) -> dict:
    """Every job of one pass through both connections; timings + checks."""
    from repro.runner.serialize import canonical

    jobs: list[dict] = []
    lanes = [
        threading.Thread(target=_client_loop, args=(server, seed, lane, jobs))
        for lane in range(CONNECTIONS)
    ]
    start = time.perf_counter()
    for lane in lanes:
        lane.start()
    for lane in lanes:
        lane.join()
    end = time.perf_counter()

    jobs.sort(key=lambda j: (j["index"], j["name"]))
    problems, digests, originals = [], [], {}
    for job in jobs:
        if job["state"] != "done":
            problems.append(f"{job['name']}: ended {job['state']}")
            continue
        spec = workloads.service_job(seed, job["index"])
        problems += workloads.check_service_job(job["name"], spec, job["results"])
        if job["name"].endswith("/dup"):
            original = originals.get(job["index"])
            if original != [canonical(r) for r in job["results"]]:
                problems.append(f"{job['name']}: differs from its original")
        else:
            originals[job["index"]] = [canonical(r) for r in job["results"]]
            digests += [
                [f"{job['name']}/{r['index']}", workloads.record_digest(r)]
                for r in job["results"]
            ]
    return {
        "interval": (start, end),
        "jobs": jobs,
        "problems": problems,
        "digests": digests,
    }


def run(root: Path, env: dict[str, str], seed: int, seconds: float) -> dict:
    """Boot, measure passes until they add up to *seconds* (at least
    one), shut down.

    Set-up is sampled five times — two boots before the measured one and
    two after it — and the median reported, so slow boots cannot move
    it.  Times are speed-normalised (``speed.py``) with a probe on every
    CPU, since the server and its workers use them all; each job is
    normalised over its own interval.
    """
    probe = speed.SpeedProbe(sorted(os.sched_getaffinity(0)))
    try:
        setups = [_boot_only(root, env) for _ in range(2)]
        server = Server(root, env)
        try:
            setups.append(server.setup)
            passes = []
            before = server.client.metrics()
            while not passes or sum(p["wall_s"] for p in passes) < seconds:
                one = run_pass(server, seed)
                t0, t1 = one["interval"]
                one["raw_wall_s"] = t1 - t0
                one["wall_s"] = probe.normalise(t1 - t0, t0, t1)
                passes.append(one)
            counters = _metrics_delta(before, server.client.metrics())
            peak_rss_mb = _peak_rss_mb(
                [server.proc.pid, *_descendants(server.proc.pid)]
            )
        finally:
            server.stop()
        setups += [_boot_only(root, env) for _ in range(2)]
    finally:
        probe.stop()
    timed = [j for p in passes for j in p["jobs"] if "latency_s" in j]
    for job in timed:
        raw = job["latency_s"]
        job["latency_s"] = probe.normalise(raw, job["start"], job["start"] + raw)
        factor = job["latency_s"] / raw
        job["submit_s"] *= factor
        if job["first_result_s"] is not None:
            job["first_result_s"] *= factor
    return {
        "passes": passes,
        "setup": [probe.normalise(t1 - t0, t0, t1) for t0, t1 in setups],
        "raw_setup": [t1 - t0 for t0, t1 in setups],
        "peak_rss_mb": peak_rss_mb,
        "latencies": [j["latency_s"] for j in timed],
        "submit_s": statistics.median(j["submit_s"] for j in timed),
        "first_result_s": statistics.median(
            j["first_result_s"] for j in timed if j["first_result_s"] is not None
        ),
        "counters": counters,
    }


def _boot_only(root: Path, env: dict[str, str]) -> tuple[float, float]:
    server = Server(root, env)
    server.stop()
    return server.setup
