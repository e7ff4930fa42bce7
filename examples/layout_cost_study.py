#!/usr/bin/env python3
"""Fig. 5 in miniature: layout cost of the scheme on one benchmark.

Builds four layouts of b14 — unprotected, Prelift (locked netlist
through a plain flow), and the secure splits at M4 and M6 — and prints
the area/power/timing deltas the paper's Fig. 5 reports as boxplots.

The heavy artefacts come from the campaign runner's cached stages
(with the harnesses' cell spec and cache, ``benchmarks/_pipeline.py``):
the locked design, every layout and the
cost sweep are content-keyed in the shared on-disk artifact cache, so
reruns (and any other harness touching the same cell) are free.  The
cell spec pins the historical standalone knobs (seed 2019, profile
default scale, lock candidate budget 350), so the numbers are
bit-identical to the pre-pipeline version of this script —
``--verify`` recomputes the standalone path and asserts that.

Run:  python examples/layout_cost_study.py [--verify]
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import _pipeline  # noqa: E402

from repro.benchgen import ITC99_PROFILES  # noqa: E402

#: The historical lock candidate budget (AtpgLockConfig's default, not
#: the campaign profiles' 250) — part of the bit-identity contract.
_LOCK_CANDIDATES = 350

PAPER = {
    "prelift": (-12.75, +7.66, +6.40),
    "M4": (-10.05, +20.34, +6.25),
    "M6": (-8.83, +15.46, +6.53),
}


def study_cell(name: str):
    """The runner cell matching this script's historical standalone knobs."""
    profile = ITC99_PROFILES[name]
    key_bits = max(8, round(128 * profile.default_scale))
    return replace(
        _pipeline.cell_spec(name, key_bits=key_bits),
        scale=None,
        max_candidates=_LOCK_CANDIDATES,
    )


def pipeline_study(name: str):
    """Lock report + cost deltas through the cached runner stages."""
    from repro.runner.stages import cell_layout, layout_cost_runs, locked_design

    cache = _pipeline.disk_cache()
    cell = study_cell(name)
    design = locked_design(cell, cache)
    deltas = layout_cost_runs(cell, cache)
    # served straight from the cache layout_cost_runs just filled
    m4 = cell_layout(replace(cell, split_layer=4), cache, design=design)
    return design, deltas, m4


def standalone_study(name: str):
    """The historical in-process computation (no runner, no cache)."""
    from repro.benchgen import load_itc99
    from repro.locking import AtpgLockConfig, atpg_lock
    from repro.phys import (
        build_locked_layout,
        build_unprotected_layout,
        measure_layout_cost,
    )

    profile = ITC99_PROFILES[name]
    core = load_itc99(name).combinational_core()
    key_bits = max(8, round(128 * profile.default_scale))
    locked, report = atpg_lock(
        core, AtpgLockConfig(key_bits=key_bits, seed=2019, run_lec=False)
    )
    base_layout = build_unprotected_layout(core, seed=2019)
    base = measure_layout_cost(core, base_layout.floorplan, base_layout.routing)
    stages = {"prelift": build_locked_layout(locked, seed=2019, prelift=True)}
    for split in (4, 6):
        stages[f"M{split}"] = build_locked_layout(
            locked, split_layer=split, seed=2019
        )
    deltas = {
        label: measure_layout_cost(
            layout.circuit, layout.floorplan, layout.routing
        ).delta_percent(base)
        for label, layout in stages.items()
    }
    return report, deltas


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--verify", action="store_true",
        help="recompute the historical standalone path and assert the "
        "pipelined numbers are bit-identical",
    )
    args = parser.parse_args()

    name = "b14"
    design, deltas, m4 = pipeline_study(name)
    report = design.report
    core = design.core
    key_bits = max(8, round(128 * ITC99_PROFILES[name].default_scale))
    print(f"{name}: {core.num_logic_gates()} gates, key prorated to "
          f"{key_bits} bits (the paper's ~1.3% key:gate ratio)\n")
    print(f"locking: {len(report.selected_faults)} keyed faults, "
          f"{len(report.free_faults)} free (redundant) removals, "
          f"cell area {report.area_original:.0f} -> "
          f"{report.area_locked:.0f} um^2 "
          f"({report.area_delta_percent:+.1f}%)\n")

    print(f"{'stage':12s} {'area %':>8s} {'power %':>8s} {'timing %':>9s}")
    for label in ("prelift", "M4", "M6"):
        delta = deltas[label]
        p = PAPER[label]
        print(f"{label:12s} {delta['area']:+8.1f} {delta['power']:+8.1f} "
              f"{delta['timing']:+9.1f}   (paper avg: "
              f"{p[0]:+.1f} / {p[1]:+.1f} / {p[2]:+.1f})")

    print(f"\nECO after lifting at M4: {m4.lifting.eco_rerouted} nets "
          f"re-routed, {m4.lifting.eco_buffers} repeaters inserted")

    if args.verify:
        ref_report, ref_deltas = standalone_study(name)
        assert deltas == ref_deltas, (
            f"pipeline deltas diverged from the standalone path:\n"
            f"  pipeline:   {deltas}\n  standalone: {ref_deltas}"
        )
        assert len(report.selected_faults) == len(ref_report.selected_faults)
        assert report.area_locked == ref_report.area_locked
        print("\nverify: pipelined output bit-identical to the "
              "standalone path")


if __name__ == "__main__":
    main()
