"""Adversary-scenario campaign benchmark: cold vs cached attack cells.

Runs one small scenario grid cell (the CI attack smoke cell) twice
against a fresh cache directory — once cold (every stage computed) and
once warm (every stage served from the content-keyed artifact cache) —
and emits ``BENCH_attacks.json`` so the attack-stage cost and the
cache's effectiveness are tracked PR over PR.
The warm pass also cross-checks that cached outcomes are bit-identical
to the cold computation, and that every connection-recovering scenario
beat the random floor.

Usage::

    python benchmarks/bench_attacks.py --quick     # CI smoke cell
    python benchmarks/bench_attacks.py             # the full smoke grid
    python benchmarks/bench_attacks.py --output out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.adversary.evaluate import grid_verdict  # noqa: E402
from repro.runner import run_attack_campaign  # noqa: E402
from repro.runner.profiles import attack_smoke_campaign  # noqa: E402
from repro.runner.spec import AttackCampaignSpec  # noqa: E402


def quick_campaign() -> AttackCampaignSpec:
    """One benchmark x the two new engines + the random floor."""
    return AttackCampaignSpec(
        benchmarks=("random:i14-o8-g200",),
        scenarios=("netflow", "learned", "random"),
        split_layers=(4,),
        key_bits=(16,),
        hd_patterns=2_048,
        max_candidates=80,
    )


def run_grid(spec: AttackCampaignSpec, cache_dir: Path, workers: int):
    start = time.perf_counter()
    result = run_attack_campaign(
        spec, workers=workers, cache_dir=cache_dir
    )
    seconds = time.perf_counter() - start
    return result, seconds


def verify(cold, warm) -> None:
    warm_stats = warm.cache_stats()
    if warm_stats.misses != 0:
        raise AssertionError(
            f"warm pass recomputed {warm_stats.misses} stages"
        )
    for a, b in zip(cold.cells, warm.cells):
        if (
            a.outcome.ccr != b.outcome.ccr
            or a.outcome.hd_oer != b.outcome.hd_oer
            or a.outcome.diagnostics != b.outcome.diagnostics
        ):
            raise AssertionError(
                f"{a.cell.cell_id}: cached outcome differs from cold"
            )
    ok, problems = grid_verdict(cold.outcomes())
    if not ok:
        raise AssertionError("; ".join(problems))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke subset (one benchmark, three scenarios)",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_attacks.json",
    )
    args = parser.parse_args(argv)

    spec = quick_campaign() if args.quick else attack_smoke_campaign()
    with tempfile.TemporaryDirectory(prefix="bench-attacks-") as tmp:
        cache_dir = Path(tmp) / "cache"
        cold, cold_seconds = run_grid(spec, cache_dir, args.workers)
        warm, warm_seconds = run_grid(spec, cache_dir, args.workers)
    verify(cold, warm)

    print(
        f"{'cell':>34} {'scenario':>10} {'reg CCR':>8} "
        f"{'cold s':>7} {'warm s':>7}"
    )
    rows = []
    for a, b in zip(cold.cells, warm.cells):
        rows.append(
            {
                "cell": a.cell.cell.cell_id,
                "scenario": a.cell.scenario.name,
                "engine": a.outcome.engine,
                "regular_ccr": a.outcome.ccr.regular_ccr,
                "key_logical_ccr": a.outcome.ccr.key_logical_ccr,
                "hd_percent": (
                    a.outcome.hd_oer.hd_percent if a.outcome.hd_oer else None
                ),
                "oer_percent": (
                    a.outcome.hd_oer.oer_percent if a.outcome.hd_oer else None
                ),
                "sim_engine": a.outcome.sim_engine,
                "cold_seconds": a.seconds,
                "cached_seconds": b.seconds,
            }
        )
        print(
            f"{rows[-1]['cell']:>34} {rows[-1]['scenario']:>10} "
            f"{rows[-1]['regular_ccr']:>8.1f} {a.seconds:>7.2f} "
            f"{b.seconds:>7.3f}"
        )

    payload = {
        "workload": "adversary scenario grid, cold vs artifact-cache-served",
        "quick": args.quick,
        "workers": args.workers,
        "cells": rows,
        "cold_wall_seconds": cold_seconds,
        "cached_wall_seconds": warm_seconds,
        "cache_speedup": cold_seconds / max(warm_seconds, 1e-9),
        "cold_cache": asdict(cold.cache_stats()),
        "warm_cache": asdict(warm.cache_stats()),
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    print(
        f"cold {cold_seconds:.1f}s -> cached {warm_seconds:.2f}s "
        f"({payload['cache_speedup']:.0f}x)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
