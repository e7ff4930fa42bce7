"""Cold end-to-end benchmark of the paper workloads, with a traced per-layer run.

One run measures one workload::

    python3 e2ebench/run.py --workload attack-grid-cold --seed 0 --seconds 20 --trace 0

from the root of a source checkout.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the ``end_to_end`` ones of
``BENCHMARK.json``, with ``--trace 1`` the ``per_layer`` ones.  A
human-readable summary (median, quartiles and sample count per metric,
raw seconds beside the normalised ones, and ``fail_frac``) goes to
standard error.

Workloads (see ``workloads.py``):

* ``attack-grid-cold`` — the ``attacks --smoke`` and ``--matrix-smoke``
  cells as one serial campaign, no artifact cache.
* ``service-jobs`` — a cacheless ``serve --workers 2`` driven by one
  client in a closed loop over two connections (``service.py``).
* ``table12-cold`` — the Tables I/II grid, serial, no artifact cache.
  Not in ``BENCHMARK.json``: one pass takes a minute or more, too long
  for the benchmark's run budget; run it by name.

The compute-heavy grids run serially: a serial run's wall time tracks
its CPU time, while a pool run adds scheduling noise.  Every pass runs in
a fresh interpreter, so nothing warm survives from one pass to the next.
A run repeats passes until their normalised times add up to
``--seconds``.  Every time is normalised to the reference machine speed
(``speed.py``), because the host's speed drifts by up to half.

``--sweep`` runs every workload round-robin for ``--runs`` seeds (so
machine drift spreads evenly over the workloads), then a traced run of
each workload twice at seed 0, and prints per-workload medians,
quartiles, spreads against the bounds of ``BENCHMARK.json``, the
tracing overhead and whether traced counts repeated exactly; the report
goes to ``.e2ebench/sweep.json``.  ``--pin`` re-records the default-seed
digests in ``digests.json``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".e2ebench"

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

#: Timeout of any one child process; a run must end within 180 s.
CHILD_TIMEOUT = 160.0
#: Set-up-only launches per serial run, before and after the passes.
SETUP_PROBES = (4, 4)

#: Traced spans predicted to record calls, per workload; every other
#: target must record none (the pool workers of ``service-jobs`` cannot
#: be wrapped from this process).
PREDICTED_CALLS = {
    workloads.TABLE12: {
        "locking.atpg_lock",
        "locking.affected_sinks",
        "attacks.proximity_attack",
        "attacks.commit_edge",
        "phys.build_locked_layout",
        "metrics.compute_hd_oer",
        "metrics.compute_ccr",
        "sim.simulate_batch_array",
    },
    workloads.ATTACK_GRID: {name for name, _, _ in spans.TARGETS},
    workloads.SERVICE: set(),
}
#: ``/metrics`` counters predicted nonzero on ``service-jobs``.
SERVICE_COUNTERS = ("cells_computed", "cells_deduped", "worker_hits")


class BenchError(RuntimeError):
    """The program or the checkout cannot be run."""


def child_env() -> dict[str, str]:
    """The program's environment: the checkout's sources, no REPRO_* knobs,
    so every run uses the default profile and engines, uncached."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile_90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ---------------------------------------------------------------------------
# Serial workloads


def launch(
    workload: str, seed: int, mode: str, cpu: int
) -> tuple[tuple[float, float], dict | None]:
    """One child pinned to *cpu*: its (launch, ready) times and its result."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), workload, str(seed), mode],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        os.sched_setaffinity(proc.pid, {cpu})
        first = proc.stdout.readline()
        setup = (start, time.perf_counter())
        if first.strip() != "ready":
            raise BenchError(f"{workload} child failed during set-up")
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited {proc.returncode}")
    if mode == "setup":
        return setup, None
    last = rest.strip().splitlines()[-1] if rest.strip() else ""
    if not last.startswith("result "):
        raise BenchError(f"{workload} child printed no result")
    return setup, json.loads(last[len("result "):])


def run_serial(
    workload: str, seed: int, seconds: float, traced: bool, pinning: bool = False
) -> dict:
    """Passes of *workload* until they add up to *seconds* (at least one),
    set-up sampled around them; a traced run makes exactly one pass.

    Every child is pinned to one CPU, with the speed probe beside it.
    """
    cpu = max(os.sched_getaffinity(0))
    probe = speed.SpeedProbe([cpu])
    try:
        before, after = SETUP_PROBES
        setups = [launch(workload, seed, "setup", cpu)[0] for _ in range(before)]
        passes = []
        while not passes or (
            not traced and sum(out["wall_s"] for out in passes) < seconds
        ):
            interval, out = launch(workload, seed, "trace" if traced else "run", cpu)
            setups.append(interval)
            raw = out["raw_wall_s"] = out["wall_s"]
            out["wall_s"] = probe.normalise(raw, out["start"], out["start"] + raw)
            out["factor"] = out["wall_s"] / raw
            passes.append(out)
        setups += [launch(workload, seed, "setup", cpu)[0] for _ in range(after)]
    finally:
        probe.stop()
    setup = [probe.normalise(t1 - t0, t0, t1) for t0, t1 in setups]
    problems = [p for out in passes for p in out["problems"]]
    if seed == 0 and not pinning:
        for out in passes:
            problems += workloads.check_digests(workload, out["digests"])
    cells = sum(len(out["digests"]) for out in passes)
    return {
        "attempted": cells,
        "failed": min(len(problems), cells),
        "problems": problems,
        "samples": {
            "wall_s": [out["wall_s"] for out in passes],
            "setup_s": setup,
            "peak_rss_mb": [out["peak_rss_mb"] for out in passes],
            # As in the service, a job is one submitted campaign: here
            # the pass's whole grid.
            "job_s": [out["wall_s"] for out in passes],
            "raw_wall_s": [out["raw_wall_s"] for out in passes],
            "raw_setup_s": [t1 - t0 for t0, t1 in setups],
        },
        "passes": passes,
    }


def serial_layers(out: dict) -> dict[str, float]:
    """Per-layer metrics of one traced serial pass."""
    layers, counts, factor = out["layers"], out["counts"], out["factor"]
    metrics: dict[str, float] = {}
    for name, _, _ in spans.TARGETS:
        entry = layers.get(name, {})
        metrics[f"{name}.calls"] = entry.get("calls", 0)
        for field in ("busy_s", "self_s"):
            metrics[f"{name}.{field}"] = entry.get(field, 0.0) * factor
    examined = counts.get("locking.candidates_examined", 0)
    metrics["locking.candidates_examined"] = examined
    metrics["locking.selected_per_examined"] = (
        counts.get("locking.selected", 0) / examined if examined else 0.0
    )
    metrics["adversary.flow_arcs"] = counts.get("adversary.flow_arcs", 0)
    metrics["adversary.hypotheses"] = counts.get("adversary.hypotheses", 0)
    root = layers[spans.ROOT]
    metrics["runner.campaign.busy_s"] = root["busy_s"] * factor
    metrics["runner.self_s"] = root["self_s"] * factor
    metrics["trace.coverage"] = 1.0 - root["self_s"] / root["busy_s"]
    metrics["trace.wall_s"] = out["wall_s"]
    return metrics


# ---------------------------------------------------------------------------
# Service workload


def run_service_workload(seed: int, seconds: float, pinning: bool = False) -> dict:
    sys.path.insert(0, str(SRC))
    import service

    out = service.run(ROOT, child_env(), seed, seconds)
    problems = [p for one in out["passes"] for p in one["problems"]]
    if seed == 0 and not pinning:
        for one in out["passes"]:
            problems += workloads.check_digests(workloads.SERVICE, one["digests"])
    jobs = sum(len(one["jobs"]) for one in out["passes"])
    return {
        "attempted": jobs,
        "failed": min(len(problems), jobs),
        "problems": problems,
        "samples": {
            "wall_s": [one["wall_s"] for one in out["passes"]],
            "setup_s": out["setup"],
            "peak_rss_mb": [out["peak_rss_mb"]],
            "job_s": out["latencies"],
            "raw_wall_s": [one["raw_wall_s"] for one in out["passes"]],
            "raw_setup_s": out["raw_setup"],
        },
        "passes": out["passes"],
        "service": out,
    }


def service_layers(out: dict) -> dict[str, float]:
    counters = out["service"]["counters"]
    metrics = {f"service.{k}": v for k, v in counters.items()}
    metrics["service.submit_s"] = out["service"]["submit_s"]
    metrics["service.first_result_s"] = out["service"]["first_result_s"]
    metrics["trace.wall_s"] = out["samples"]["wall_s"][0]
    return metrics


# ---------------------------------------------------------------------------
# One run


def end_to_end(result: dict) -> dict[str, float]:
    samples = result["samples"]
    return {
        "wall_s": statistics.median(samples["wall_s"]),
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        "job_p50_s": statistics.median(samples["job_s"]),
        "job_p90_s": percentile_90(samples["job_s"]),
    }


def call_pattern(workload: str, layers: dict[str, float]) -> list[str]:
    """Predicted-zero spans that recorded calls, and the reverse."""
    problems = []
    for name, _, _ in spans.TARGETS:
        calls = layers.get(f"{name}.calls", 0)
        if (name in PREDICTED_CALLS[workload]) != (calls > 0):
            problems.append(f"{name}: {calls} calls, predicted "
                            f"{'nonzero' if name in PREDICTED_CALLS[workload] else 'zero'}")
    if workload == workloads.SERVICE:
        problems += [f"service.{k}: 0" for k in SERVICE_COUNTERS
                     if layers.get(f"service.{k}", 0) <= 0]
    return problems


def run_once(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    if workload == workloads.SERVICE:
        result = run_service_workload(seed, seconds)
    else:
        result = run_serial(workload, seed, seconds, traced)
    spec = json.loads(SPEC.read_text())
    problems = list(result["problems"])
    if traced:
        computed = (
            service_layers(result) if workload == workloads.SERVICE
            else serial_layers(result["passes"][0])
        )
        problems += call_pattern(workload, computed)
        wanted = spec["per_layer"]
    else:
        computed = end_to_end(result)
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": computed.get(m["name"], 0), "unit": m["unit"]}
        for m in wanted
    }
    _summarise(workload, seed, result, problems, traced)
    return {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def _summarise(workload, seed, result, problems, traced) -> None:
    print(f"[e2ebench] {workload} seed {seed}"
          f"{' (traced)' if traced else ''}: {result['attempted']} attempted, "
          f"{result['failed']} failed, fail_frac "
          f"{result['failed'] / result['attempted']:.3f}", file=sys.stderr)
    units = {"peak_rss_mb": "MB"}
    for name, values in result["samples"].items():
        q1, q2, q3 = quartiles(values)
        print(f"[e2ebench]   {name:12s} median {q2:.4f} {units.get(name, 's')}  "
              f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}", file=sys.stderr)
    for problem in problems[:20]:
        print(f"[e2ebench]   FAIL {problem}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Sweep and pinning


def _self_run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if traced else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise BenchError(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sweep(runs: int, seconds: int, names: list[str]) -> int:
    spec = json.loads(SPEC.read_text())
    report: dict = {"runs": {w: [] for w in names}, "traced": {w: [] for w in names}}
    for seed in range(runs):
        for workload in names:
            report["runs"][workload].append(_self_run(workload, seed, seconds, False))
    for _ in range(2):
        for workload in names:
            report["traced"][workload].append(_self_run(workload, 0, seconds, True))
    ok = True
    print(f"{'workload':18s} {'metric':12s} {'unit':5s} {'median':>10s} "
          f"{'q1':>10s} {'q3':>10s} {'n':>3s} {'spread':>7s} {'bound':>6s}")
    for workload in names:
        rows = report["runs"][workload]
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in rows]
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2
            verdict = "ok" if spread < metric["bound"] / 3 else "WIDE"
            if metric["name"] != "setup_s" and spread > metric["bound"]:
                ok, verdict = False, "OVER"
            print(f"{workload:18s} {metric['name']:12s} {metric['unit']:5s} "
                  f"{q2:10.4f} {q1:10.4f} {q3:10.4f} {len(values):3d} "
                  f"{spread:7.3f} {metric['bound']:6.2f} {verdict}")
        failed = sum(r["failed"] for r in rows)
        attempted = sum(r["attempted"] for r in rows)
        incorrect = sum(not r["correct"] for r in rows)
        ok &= failed == 0 and incorrect == 0
        traced = report["traced"][workload]
        first, second = (
            {k: v["value"] for k, v in t["metrics"].items()} for t in traced
        )
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
        unstable = [] if workload == workloads.SERVICE else [
            n for n in counts if first[n] != second[n]
        ]
        ok &= not unstable and all(t["correct"] for t in traced)
        untraced = statistics.median(
            r["metrics"]["wall_s"]["value"] for r in rows
        )
        overhead = statistics.median(
            t["metrics"]["trace.wall_s"]["value"] for t in traced
        ) - untraced
        print(f"{workload:18s} fail_frac {failed / attempted:.4f} "
              f"({failed}/{attempted}), incorrect runs {incorrect}; traced runs "
              f"correct {[t['correct'] for t in traced]}, tracing overhead "
              f"{overhead:+.3f} s ({overhead / untraced:+.1%}), counts "
              f"{'repeat exactly' if not unstable else 'DIFFER: ' + ', '.join(unstable)}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "sweep.json").write_text(json.dumps(report, indent=1))
    print(f"report written to {OUT_DIR / 'sweep.json'}")
    return 0 if ok else 1


def pin() -> int:
    """Record every workload's default-seed (seed 0) cell digests."""
    digests = {}
    for workload in workloads.WORKLOADS:
        if workload == workloads.SERVICE:
            result = run_service_workload(0, 1, pinning=True)
        else:
            result = run_serial(workload, 0, 1, False, pinning=True)
        if result["problems"]:
            print(f"error: {workload} fails its checks: {result['problems'][:5]}",
                  file=sys.stderr)
            return 1
        digests[workload] = result["passes"][0]["digests"]
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"pinned {sum(map(len, digests.values()))} cell digests", file=sys.stderr)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", help="comma-separated; default: "
                        "the workloads of BENCHMARK.json")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or (args.seconds is not None and args.seconds < 1):
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "repro").is_dir() or not SPEC.is_file():
        print(f"error: {ROOT} is not a source checkout (no src/repro or "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    seconds = args.seconds or spec["run_seconds"]
    if args.sweep:
        names = (
            args.workloads.split(",") if args.workloads
            else [w["name"] for w in spec["workloads"]]
        )
        return sweep(args.runs, seconds, names)
    compileall.compile_dir(SRC, quiet=1)
    if args.pin:
        return pin()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        out = run_once(args.workload, args.seed, seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
