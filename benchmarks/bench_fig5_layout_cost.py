"""Fig. 5 — layout cost (%) of the scheme: Prelift, split M4, split M6.

The paper reports, against unprotected layouts of the ITC'99 suite:

* Prelift (locked, plain flow):   area -12.75%, power +7.66%, timing +6.40%
* Final, split M4:                area -10.05%, power +20.34%, timing +6.25%
* Final, split M6:                area  -8.83%, power +15.46%, timing +6.53%

Key scaling: the paper uses 128 key bits on designs of 10k-32k gates
(a ~1.3% key:gate ratio).  Our profile-matched benchmarks are scaled
down for the pure-Python flow, so the runner's Fig. 5 cells prorate the
key budget to preserve that ratio (``prorated_key_bits``) — the quantity
Fig. 5 actually reports (relative cost) is meaningless if the key is 10x
oversized relative to the design; the key-size ablation bench shows the
absolute-128-bit picture.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _pipeline import PROFILE, SCALE, SEED, disk_cache  # noqa: E402

from repro.runner import run_cost_campaign
from repro.runner.paper_data import render_fig5


@pytest.fixture(scope="module")
def fig5_data():
    """Per-benchmark cost deltas from the runner's Fig. 5 campaign.

    The key budget is prorated to the paper's key:gate ratio (see the
    module docstring); the heavy layouts come from — and land in — the
    shared on-disk artifact cache.
    """
    return run_cost_campaign(
        PROFILE.fig5_cells(), use_cache=disk_cache() is not None
    )


def _column(fig5_data, stage, metric):
    return [fig5_data[name][stage][metric] for name in fig5_data]


def test_print_fig5(fig5_data):
    print()
    print(render_fig5(fig5_data))


def test_lifting_power_cost_ordering(fig5_data):
    """Isolated lifting cost: positive, and larger at M4 than at M6."""
    m4 = statistics.median(
        [
            fig5_data[n]["M4"]["power"] - fig5_data[n]["prelift"]["power"]
            for n in fig5_data
        ]
    )
    m6 = statistics.median(
        [
            fig5_data[n]["M6"]["power"] - fig5_data[n]["prelift"]["power"]
            for n in fig5_data
        ]
    )
    assert m4 > 0.0
    assert m6 > 0.0
    assert m4 >= m6 - 0.5


def test_prelift_saves_area(fig5_data):
    """The locking's headline: removing fault-implied logic SAVES area."""
    areas = _column(fig5_data, "prelift", "area")
    assert statistics.median(areas) < 0.0


def test_area_savings_carry_over_to_splits(fig5_data):
    for stage in ("M4", "M6"):
        areas = _column(fig5_data, stage, "area")
        assert statistics.median(areas) < 3.0, stage


def test_lifting_costs_power(fig5_data):
    """Lifting + ECO re-route raises power over the prelift point."""
    pre = statistics.median(_column(fig5_data, "prelift", "power"))
    m4 = statistics.median(_column(fig5_data, "M4", "power"))
    assert m4 >= pre - 1.0


def test_timing_cost_bounded(fig5_data):
    for stage in ("prelift", "M4", "M6"):
        timing = statistics.median(_column(fig5_data, stage, "timing"))
        assert timing < 40.0, stage


def test_benchmark_layout_kernel(benchmark):
    from repro.benchgen import load_itc99
    from repro.phys.layout import build_unprotected_layout

    circuit = load_itc99("b14", seed=SEED, scale=SCALE).combinational_core()
    benchmark(lambda: build_unprotected_layout(circuit, seed=SEED))
