"""Benchmark regression gate: current ``BENCH_*.json`` vs committed baselines.

Each bench job produces a ``BENCH_*.json`` payload; this gate compares
a small set of named metrics against the committed baseline in
``benchmarks/baselines/`` and fails (exit 1) when any metric regresses
beyond its tolerance.  CI runners differ wildly from the machine that
recorded a baseline, so the tolerances are deliberately asymmetric:

* **ratio metrics** (speedups — cached vs cold, fused vs per-cell)
  divide out the machine and get the tight tolerance: a real algorithmic
  regression moves them on any machine;
* **absolute metrics** (wall seconds) get the loose tolerance: they
  gate only order-of-magnitude collapses.

Improvements never fail.  Usage::

    python benchmarks/check_regression.py BENCH_attacks.json
    python benchmarks/check_regression.py BENCH_*.json
    python benchmarks/check_regression.py --update BENCH_attacks.json  # refresh

The baseline file is matched by name: ``BENCH_attacks.json`` checks
against ``benchmarks/baselines/BENCH_attacks.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

BASELINE_DIR = Path(__file__).resolve().parent / "baselines"

#: A real speedup regression survives machine noise: ratios may drop at
#: most 40% below baseline.
RATIO_TOLERANCE = 0.40
#: Absolute times/throughputs vary with the runner; they gate only
#: order-of-magnitude collapses (a 5x slowdown trips, a 2x does not).
ABSOLUTE_TOLERANCE = 0.80
#: Additive grace (seconds) for wall-clock metrics, so millisecond-scale
#: baselines (a cache-served rerun) don't trip on scheduler noise.
WALL_CLOCK_GRACE_SECONDS = 1.0


@dataclass(frozen=True)
class Metric:
    """One gated scalar: where it lives and how it may move."""

    name: str
    extract: Callable[[dict[str, Any]], float]
    #: ``higher`` — current may not fall more than tolerance below the
    #: baseline; ``lower`` — may not rise more than tolerance above it.
    direction: str = "higher"
    tolerance: float = RATIO_TOLERANCE


#: The gate per payload stem.  Ratio metrics carry the tight tolerance,
#: absolute ones the loose tolerance (see the module docstring).
GATES: dict[str, tuple[Metric, ...]] = {
    "BENCH_attacks": (
        Metric("cache_speedup", lambda p: p["cache_speedup"]),
        Metric(
            "cold_wall_seconds",
            lambda p: p["cold_wall_seconds"],
            direction="lower",
            tolerance=ABSOLUTE_TOLERANCE,
        ),
        Metric(
            "cached_wall_seconds",
            lambda p: p["cached_wall_seconds"],
            direction="lower",
            tolerance=ABSOLUTE_TOLERANCE,
        ),
    ),
    "BENCH_defenses": (
        Metric("cache_speedup", lambda p: p["cache_speedup"]),
        Metric(
            "cold_wall_seconds",
            lambda p: p["cold_wall_seconds"],
            direction="lower",
            tolerance=ABSOLUTE_TOLERANCE,
        ),
        # arms-race strength: how far every defense pushes the
        # attacker's effective recovery down (percentage points; must
        # not collapse) and how close the lifting family keeps
        # protected-net CCR to Table III's zero (must not creep up —
        # the wall-clock grace doubles as the near-zero floor here).
        Metric("min_effective_drop", lambda p: p["min_effective_drop"]),
        Metric(
            "max_lifting_protected_ccr",
            lambda p: p["max_lifting_protected_ccr"],
            direction="lower",
            tolerance=ABSOLUTE_TOLERANCE,
        ),
    ),
    "BENCH_campaign": (
        Metric("fuse_speedup", lambda p: p["fuse_speedup"]),
        Metric(
            "fused_wall_seconds",
            lambda p: p["fused_wall_seconds"],
            direction="lower",
            tolerance=ABSOLUTE_TOLERANCE,
        ),
        # Cross-group reuse on the pool path: affinity-routed bundles +
        # the worker-resident artifact tier vs the per-group shape.
        Metric("group_reuse_speedup", lambda p: p["group_reuse_speedup"]),
        Metric(
            "affinity_wall_seconds",
            lambda p: p["affinity_wall_seconds"],
            direction="lower",
            tolerance=ABSOLUTE_TOLERANCE,
        ),
    ),
}


def check_payload(
    stem: str, current: dict[str, Any], baseline: dict[str, Any]
) -> list[str]:
    """All regressions of *current* vs *baseline*; empty means pass."""
    failures = []
    for metric in GATES[stem]:
        now = metric.extract(current)
        then = metric.extract(baseline)
        if metric.direction == "higher":
            bound = then * (1.0 - metric.tolerance)
            bad = now < bound
            allowed = f">= {bound:.4g}"
        else:
            bound = then * (1.0 + metric.tolerance) + WALL_CLOCK_GRACE_SECONDS
            bad = now > bound
            allowed = f"<= {bound:.4g}"
        verdict = "FAIL" if bad else "ok"
        print(
            f"[bench-gate] {verdict:>4} {stem}.{metric.name}: "
            f"{now:.4g} vs baseline {then:.4g} (allowed {allowed})"
        )
        if bad:
            failures.append(f"{stem}.{metric.name}: {now:.4g} vs {then:.4g}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "payloads", nargs="+", type=Path, help="current BENCH_*.json files"
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=BASELINE_DIR,
        help="directory of committed baselines (default: %(default)s)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="copy the current payloads over the baselines instead of "
        "checking (commit the result deliberately)",
    )
    args = parser.parse_args(argv)

    failures: list[str] = []
    for path in args.payloads:
        stem = path.stem
        if stem not in GATES:
            print(f"[bench-gate] no gate defined for {path.name}")
            failures.append(f"{stem}: unknown payload")
            continue
        if args.update:
            args.baseline_dir.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, args.baseline_dir / path.name)
            print(f"[bench-gate] baseline updated: {path.name}")
            continue
        baseline_path = args.baseline_dir / path.name
        if not baseline_path.exists():
            print(
                f"[bench-gate] no baseline for {path.name} — run with "
                f"--update and commit {baseline_path}"
            )
            failures.append(f"{stem}: missing baseline")
            continue
        current = json.loads(path.read_text())
        baseline = json.loads(baseline_path.read_text())
        failures += check_payload(stem, current, baseline)

    if failures:
        print(f"[bench-gate] {len(failures)} regression(s):", file=sys.stderr)
        for line in failures:
            print(f"[bench-gate]   {line}", file=sys.stderr)
        return 1
    print("[bench-gate] all benchmark metrics within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
