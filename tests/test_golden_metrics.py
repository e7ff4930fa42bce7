"""Golden-metric regression: pinned paper numbers for one smoke cell.

One reduced Table I / Table II cell (the CI smoke campaign's ``b14`` at
split layer M4, 16 key bits, 2048 HD patterns) is computed end to end —
generate, lock, layout, attack, metrics — and every reported number is
pinned **exactly**.  Simulation-engine swaps (big-int vs compiled) or
refactors of the metric pipeline can never silently shift paper values:
any drift fails here first.

The values were cross-checked against the pre-compiled-engine seed
implementation; both engines reproduce them bit-for-bit.
"""

import random

import pytest

from repro.atpg.fault_sim import fault_coverage
from repro.atpg.faults import internal_faults
from repro.runner.profiles import smoke_campaign
from repro.runner.spec import proximity_cell
from repro.runner.stages import cell_attack, locked_design
from repro.sim.bitparallel import random_words

#: Exact golden values of the smoke cell (b14, M4, 16 key bits).
GOLDEN_HD_PERCENT = 44.66732838114754
GOLDEN_OER_PERCENT = 100.0
GOLDEN_HD_PATTERNS = 2048
GOLDEN_REGULAR_CCR = 16.285714285714285
GOLDEN_KEY_PHYSICAL_CCR = 0.0
GOLDEN_KEY_LOGICAL_CCR = 43.75
GOLDEN_REGULAR_BROKEN = 350
GOLDEN_KEY_BROKEN = 16
GOLDEN_FAULT_COVERAGE = 0.7063106796116505
GOLDEN_FAULT_UNIVERSE = 412
GOLDEN_FAULT_UNDETECTED = 121


@pytest.fixture(scope="module")
def smoke_artifacts():
    cell = list(smoke_campaign().cells())[0]
    design = locked_design(cell, cache=None)
    run = cell_attack(proximity_cell(cell), cache=None, design=design)
    return design, run


@pytest.mark.parametrize("engine", ["bigint", "compiled"])
def test_golden_hd_oer_and_ccr(smoke_artifacts, engine, monkeypatch):
    # The lock/layout/attack artefacts are shared; only the metric
    # computation re-runs per engine (HD/OER is the simulation-bound
    # metric, which is exactly what an engine swap could shift).
    from repro.metrics.hd_oer import compute_hd_oer

    design, run = smoke_artifacts
    assert run.hd_oer.hd_percent == GOLDEN_HD_PERCENT
    assert run.hd_oer.oer_percent == GOLDEN_OER_PERCENT
    assert run.hd_oer.patterns == GOLDEN_HD_PATTERNS
    assert run.ccr.regular_ccr == GOLDEN_REGULAR_CCR
    assert run.ccr.key_physical_ccr == GOLDEN_KEY_PHYSICAL_CCR
    assert run.ccr.key_logical_ccr == GOLDEN_KEY_LOGICAL_CCR
    assert run.ccr.regular_broken == GOLDEN_REGULAR_BROKEN
    assert run.ccr.key_broken == GOLDEN_KEY_BROKEN

    monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
    cell = list(smoke_campaign().cells())[0]
    rerun = cell_attack(proximity_cell(cell), cache=None, design=design)
    assert rerun.hd_oer.hd_percent == GOLDEN_HD_PERCENT
    assert rerun.hd_oer.oer_percent == GOLDEN_OER_PERCENT
    # compute_hd_oer directly as well, to pin the metric entry point.
    report = compute_hd_oer(
        design.core, design.core, patterns=512, seed=5
    )
    assert report.hd_percent == 0.0
    assert report.oer_percent == 0.0


@pytest.mark.parametrize("engine", ["bigint", "compiled"])
def test_golden_fault_coverage(smoke_artifacts, engine, monkeypatch):
    design, _run = smoke_artifacts
    monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
    core = design.core
    faults = internal_faults(core)
    assert len(faults) == GOLDEN_FAULT_UNIVERSE
    words = random_words(core.inputs, 1024, random.Random(99))
    ratio, undetected = fault_coverage(core, faults, words, 1024)
    assert ratio == GOLDEN_FAULT_COVERAGE
    assert len(undetected) == GOLDEN_FAULT_UNDETECTED


def test_golden_lock_report(smoke_artifacts):
    design, _run = smoke_artifacts
    assert design.report.atpg_key_bits == 8
    assert design.report.random_key_bits == 8
    assert design.report.area_original == pytest.approx(314.944, abs=1e-9)
    assert design.report.area_locked == pytest.approx(287.546, abs=1e-9)
    assert design.report.selected_faults == [
        "b14_g154/sa1",
        "b14_g183/sa0",
        "b14_g171/sa0",
    ]
    assert design.report.free_faults == ["b14_p1_root/sa0"]
