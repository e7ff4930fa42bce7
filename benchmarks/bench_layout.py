"""Layout-engine benchmark: reference vs compiled place+route+split.

The layout stage became the bottleneck of every cold attack cell (see
``BENCH_attacks.json``), so this benchmark tracks it the way
``bench_sim.py`` tracks simulation: each profile's locked netlist is
laid out by both ``REPRO_LAYOUT_ENGINE`` settings, the results are
cross-checked **bit-identically** (placements, routes, stubs, layout
cost), and the place+route+split wall time per engine lands in
``BENCH_layout.json`` so the speedup trajectory is tracked PR over PR.

``--engine-diff`` runs the CI differential smoke cell instead: one
campaign cell's layout stage under both engine settings, asserting the
runner's cache keys differ (the knob is part of the key) while the
layout artifacts and derived metrics are identical.

Usage::

    python benchmarks/bench_layout.py --quick       # CI subset
    python benchmarks/bench_layout.py               # full profile grid
    python benchmarks/bench_layout.py --engine-diff # cache-key smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.benchgen import load_iscas85, load_itc99  # noqa: E402
from repro.locking.atpg_lock import AtpgLockConfig, atpg_lock  # noqa: E402
from repro.phys.cost import measure_layout_cost  # noqa: E402
from repro.phys.layout import build_locked_layout  # noqa: E402

#: (profile, key bits) grid; c7552 — the largest profile — is the
#: acceptance anchor for the >= 3x layout-stage speedup.
FULL_GRID = (
    ("c432", 16),
    ("c880", 24),
    ("c7552", 64),
    ("b14", 32),
    ("b17", 64),
)
QUICK_GRID = (("c880", 24), ("b14", 32), ("c7552", 64))
LARGEST_PROFILE = "c7552"

ENGINES = ("reference", "compiled")


def load_profile(name: str):
    loader = load_iscas85 if name.startswith("c") else load_itc99
    circuit = loader(name)
    if circuit.is_sequential:
        circuit = circuit.combinational_core()
    return circuit


def layout_once(locked, engine: str):
    """One cold place+route+lift+split pass under *engine*."""
    os.environ["REPRO_LAYOUT_ENGINE"] = engine
    try:
        start = time.perf_counter()
        layout = build_locked_layout(locked, split_layer=4, seed=2019)
        view = layout.feol_view()
        seconds = time.perf_counter() - start
    finally:
        del os.environ["REPRO_LAYOUT_ENGINE"]
    return layout, view, seconds


def verify_identical(name: str, results: dict) -> None:
    """Engines must agree bit-for-bit on every layout artifact."""
    ref_layout, ref_view, _ = results["reference"]
    cmp_layout, cmp_view, _ = results["compiled"]
    if ref_layout.placement.locations != cmp_layout.placement.locations:
        raise AssertionError(f"{name}: placements differ between engines")
    if ref_layout.placement.widths_sites != cmp_layout.placement.widths_sites:
        raise AssertionError(f"{name}: cell widths differ between engines")
    ref_nets, cmp_nets = ref_layout.routing.nets, cmp_layout.routing.nets
    if list(ref_nets) != list(cmp_nets) or any(
        ref_nets[n] != cmp_nets[n] for n in ref_nets
    ):
        raise AssertionError(f"{name}: routing differs between engines")
    if (
        ref_view.source_stubs != cmp_view.source_stubs
        or ref_view.sink_stubs != cmp_view.sink_stubs
        or ref_view.visible_nets != cmp_view.visible_nets
    ):
        raise AssertionError(f"{name}: FEOL stubs differ between engines")
    ref_cost = measure_layout_cost(
        ref_layout.circuit, ref_layout.floorplan, ref_layout.routing
    )
    cmp_cost = measure_layout_cost(
        cmp_layout.circuit, cmp_layout.floorplan, cmp_layout.routing
    )
    if asdict(ref_cost) != asdict(cmp_cost):
        raise AssertionError(f"{name}: LayoutCost differs between engines")


def bench_profile(name: str, key_bits: int, repeats: int) -> dict:
    circuit = load_profile(name)
    locked, _ = atpg_lock(
        circuit,
        AtpgLockConfig(key_bits=key_bits, seed=2019, run_lec=False),
    )
    results = {}
    best = {}
    for engine in ENGINES:
        seconds = []
        for _ in range(repeats):
            layout, view, elapsed = layout_once(locked, engine)
            seconds.append(elapsed)
        results[engine] = (layout, view, seconds)
        best[engine] = min(seconds)
    verify_identical(name, results)
    layout, view, _ = results["compiled"]
    row = {
        "profile": name,
        "gates": circuit.num_logic_gates(),
        "key_bits": key_bits,
        "nets_routed": len(layout.routing.nets),
        "stubs": len(view.source_stubs) + len(view.sink_stubs),
        "reference_seconds": best["reference"],
        "compiled_seconds": best["compiled"],
        "speedup": best["reference"] / best["compiled"],
        "layouts_per_second_compiled": 1.0 / best["compiled"],
    }
    print(
        f"{name:>8} {row['gates']:>6} gates  "
        f"ref {row['reference_seconds']:7.3f}s  "
        f"cmp {row['compiled_seconds']:7.3f}s  "
        f"{row['speedup']:5.1f}x  (bit-identical)"
    )
    return row


def engine_diff_smoke() -> int:
    """CI smoke: same cell under both engines — distinct cache keys,
    identical layout artifacts and attack metrics."""
    import tempfile

    from repro.runner.profiles import smoke_campaign
    from repro.runner.spec import proximity_cell
    from repro.runner.stages import (
        cell_attack,
        cell_layout,
        layout_payload,
        locked_design,
    )
    from repro.utils.artifact_cache import ArtifactCache, spec_key

    cell = list(smoke_campaign().cells())[0]
    keys = {}
    runs = {}
    layouts = {}
    with tempfile.TemporaryDirectory(prefix="layout-diff-") as tmp:
        cache = ArtifactCache(root=Path(tmp))
        for engine in ENGINES:
            os.environ["REPRO_LAYOUT_ENGINE"] = engine
            try:
                keys[engine] = spec_key(layout_payload(cell))
                design = locked_design(cell, cache)
                layouts[engine] = cell_layout(cell, cache, design=design)
                runs[engine] = cell_attack(
                    proximity_cell(cell), cache, design=design
                )
            finally:
                del os.environ["REPRO_LAYOUT_ENGINE"]
    if keys["reference"] == keys["compiled"]:
        raise AssertionError(
            "layout cache keys must differ per engine (knob not keyed?)"
        )
    ref, cmp_ = layouts["reference"], layouts["compiled"]
    if ref.placement.locations != cmp_.placement.locations or any(
        ref.routing.nets[n] != cmp_.routing.nets[n] for n in ref.routing.nets
    ):
        raise AssertionError("engine-diff smoke: layouts differ")
    if asdict(runs["reference"].ccr) != asdict(runs["compiled"].ccr) or asdict(
        runs["reference"].hd_oer
    ) != asdict(runs["compiled"].hd_oer):
        raise AssertionError("engine-diff smoke: metrics differ")
    print(
        "engine-diff smoke: cache keys differ "
        f"({keys['reference'][:12]} vs {keys['compiled'][:12]}), "
        "layouts and metrics bit-identical"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI subset of the grid"
    )
    parser.add_argument(
        "--engine-diff", action="store_true",
        help="run the cache-key differential smoke cell instead",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_layout.json",
    )
    args = parser.parse_args(argv)
    if args.engine_diff:
        return engine_diff_smoke()

    grid = QUICK_GRID if args.quick else FULL_GRID
    rows = [
        bench_profile(name, key_bits, args.repeats)
        for name, key_bits in grid
    ]
    anchor = next(
        (row for row in rows if row["profile"] == LARGEST_PROFILE), None
    )
    payload = {
        "workload": "cold place+route+lift+split, reference vs compiled",
        "quick": args.quick,
        "repeats": args.repeats,
        "profiles": rows,
        "largest_profile": LARGEST_PROFILE,
        "largest_profile_speedup": anchor["speedup"] if anchor else None,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    if anchor is not None and anchor["speedup"] < 3.0:
        print(
            f"WARNING: {LARGEST_PROFILE} speedup {anchor['speedup']:.2f}x "
            "is below the 3x acceptance target"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
