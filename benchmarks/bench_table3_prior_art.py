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
from _pipeline import FULL, SEED, get_table3_grid  # noqa: E402

from repro.benchgen import TABLE_III_BENCHMARKS
from repro.defense import apply_defense, resolve_defense
from repro.runner import CellSpec, cell_layout

HD_PATTERNS = 1_000_000 if FULL else 8_192
BENCHES = TABLE_III_BENCHMARKS if FULL else ("c432", "c880", "c1355", "c1908")
KEY_BITS_ISCAS = 32  # prorated for the small ISCAS designs (see DESIGN.md)

PAPER_AVERAGES = {
    "[22]": (88.3, 73.3, 29.1, 99.9),
    "[12]": (30.3, 0.0, 41.1, 100.0),
    "[13]": (None, 0.0, 41.7, 99.9),
    "proposed": (27.5, 1.1, 42.8, 99.8),
}


@pytest.fixture(scope="module")
def table3_data():
    """The Table III grid as ordinary attack x defense campaign cells.

    Each benchmark contributes the proximity attack on three prior-art
    defenses of the unlocked design plus the proposed 32-bit lock,
    computed once per spec through the shared artifact cache.
    """
    return get_table3_grid(BENCHES, KEY_BITS_ISCAS, HD_PATTERNS)


def _averages(table3_data, scheme):
    rows = [table3_data[name][scheme] for name in table3_data]
    n = len(rows)
    return tuple(sum(r[i] for r in rows) / n for i in range(4))


def test_print_table3(table3_data):
    from repro.utils.tables import render_table

    header = ["scheme", "PNR (paper/ours)", "CCR", "HD", "OER"]
    body = []
    for scheme in ("[22]", "[12]", "[13]", "proposed"):
        ours = _averages(table3_data, scheme)
        paper = PAPER_AVERAGES[scheme]
        body.append(
            [
                scheme,
                f"{paper[0] if paper[0] is not None else 'NA'} / {ours[0]:.1f}",
                f"{paper[1]} / {ours[1]:.1f}",
                f"{paper[2]} / {ours[2]:.1f}",
                f"{paper[3]} / {ours[3]:.1f}",
            ]
        )
    print()
    print(
        render_table(
            f"Table III (averages over {', '.join(BENCHES)}; split M4)",
            header,
            body,
            note="CCR = physical CCR over each scheme's protected nets",
        )
    )


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
