"""Table III — PNR/CCR/HD/OER for ISCAS benchmarks at M4 versus prior art.

Compares the proposed scheme against routing perturbation [22], concerted
wire lifting [12] and BEOL restore [13] on the ISCAS-85 suite, exactly as
the paper's Table III does.  Paper averages:

    [22]      PNR 88.3  CCR 73.3  HD 29.1  OER  99.9
    [12]      PNR 30.3  CCR  0.0  HD 41.1  OER 100.0
    [13]      PNR  n/a  CCR  0.0  HD 41.7  OER  99.9
    proposed  PNR 27.5  CCR  1.1  HD 42.8  OER  99.8

The decisive shape: [22] leaves most structure recoverable; [12], [13]
and the proposed scheme reduce the attacker to noise — but only the
proposed scheme carries a formal guarantee and does it with a fixed,
small key budget.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _pipeline import PROFILE, SEED, disk_cache  # noqa: E402

from repro.defense import apply_defense, resolve_defense
from repro.runner import CellSpec, cell_layout, run_attack_campaign
from repro.runner.paper_data import render_table3, table3_grid
from repro.runner.paper_data import table3_averages as _averages


@pytest.fixture(scope="module")
def table3_data():
    """The Table III grid as ordinary attack x defense campaign cells.

    Each benchmark contributes the proximity attack on three prior-art
    defenses of the unlocked design plus the proposed 32-bit lock
    (:meth:`~repro.runner.ExperimentProfile.table3_cells`), run by the
    runner through the shared artifact cache.
    """
    result = run_attack_campaign(
        PROFILE.table3_cells(), use_cache=disk_cache() is not None
    )
    return table3_grid(result)


def test_print_table3(table3_data):
    print()
    print(render_table3(table3_data))


def test_weak_defense_leaks(table3_data):
    """[22] must leave most of the hidden structure recoverable."""
    pnr, ccr, _, _ = _averages(table3_data, "[22]")
    assert ccr > 35.0
    assert pnr > 35.0


def test_strong_defenses_suppress_ccr(table3_data):
    for scheme in ("[12]", "[13]", "proposed"):
        _, ccr, _, _ = _averages(table3_data, scheme)
        assert ccr < 12.0, scheme


def test_all_schemes_keep_oer_high(table3_data):
    for scheme in ("[22]", "[12]", "[13]", "proposed"):
        *_, oer = _averages(table3_data, scheme)
        assert oer > 90.0, scheme


def test_proposed_is_competitive(table3_data):
    """The proposed scheme matches the strongest prior art on CCR/OER."""
    _, ccr_prop, hd_prop, oer_prop = _averages(table3_data, "proposed")
    _, ccr_12, *_ = _averages(table3_data, "[12]")
    assert ccr_prop <= ccr_12 + 10.0
    assert hd_prop > 20.0
    assert oer_prop > 95.0


def test_ordering_matches_paper(table3_data):
    """[22] >> [12]/[13]/proposed in recoverability."""
    pnr22, ccr22, _, _ = _averages(table3_data, "[22]")
    for scheme in ("[12]", "[13]", "proposed"):
        pnr, ccr, _, _ = _averages(table3_data, scheme)
        assert pnr22 > pnr
        assert ccr22 > ccr


def test_benchmark_defense_kernel(benchmark):
    cell = CellSpec(benchmark="c432", key_bits=0, seed=SEED)
    layout = cell_layout(cell)
    spec = resolve_defense("wire-lifting")
    benchmark(lambda: apply_defense(spec, layout, cell.split_layer))


if os.environ.get("REPRO_FULL"):
    __doc__ += "\n(full ISCAS suite active)"
