"""Footnote 6 ablation — the key-gate post-processing step.

"Recall that we post-process falsely connected key-gates from [7].
Otherwise, as we find in separate experiments, the logical CCR drops well
below 50%, namely to 29.3% and 17.6% for split layers M6 and M4,
respectively."

The harness compares logical CCR with and without the post-processing
(reusing the Table-I attack runs) and checks the paper's two findings:
without it the logical CCR collapses, and it collapses harder at M4
(more broken regular drivers near each key-gate to falsely latch onto).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _pipeline import cell_spec, disk_cache, table_campaign  # noqa: E402

from repro.runner import cell_layout
from repro.runner.paper_data import table12_rows

PAPER_RAW_LOGICAL_CCR = {4: 17.6, 6: 29.3}


@pytest.fixture(scope="module")
def ablation_rows():
    return [
        (
            name,
            m4.ccr_raw.key_logical_ccr,
            m4.ccr.key_logical_ccr,
            m6.ccr_raw.key_logical_ccr,
            m6.ccr.key_logical_ccr,
        )
        for name, m4, m6 in table12_rows(table_campaign())
    ]


def test_print_ablation(ablation_rows):
    from repro.utils.tables import render_table

    header = ["bench", "M4 raw", "M4 post", "M6 raw", "M6 post"]
    body = [
        [name, f"{r4:.0f}", f"{p4:.0f}", f"{r6:.0f}", f"{p6:.0f}"]
        for name, r4, p4, r6, p6 in ablation_rows
    ]
    avg = lambda i: sum(r[i] for r in ablation_rows) / len(ablation_rows)  # noqa: E731
    body.append(
        ["Average", f"{avg(1):.0f}", f"{avg(2):.0f}", f"{avg(3):.0f}", f"{avg(4):.0f}"]
    )
    print()
    print(
        render_table(
            "Footnote 6: key logical CCR (%) without/with post-processing "
            f"(paper raw: M4 {PAPER_RAW_LOGICAL_CCR[4]}, M6 {PAPER_RAW_LOGICAL_CCR[6]})",
            header,
            body,
        )
    )


def test_raw_ccr_collapses_below_random(ablation_rows):
    avg_raw_m4 = sum(r[1] for r in ablation_rows) / len(ablation_rows)
    avg_post_m4 = sum(r[2] for r in ablation_rows) / len(ablation_rows)
    assert avg_raw_m4 < 35.0
    assert avg_post_m4 > avg_raw_m4 + 10.0


def test_collapse_is_worse_at_lower_split(ablation_rows):
    """More broken regular nets at M4 => more false regular matches."""
    avg_raw_m4 = sum(r[1] for r in ablation_rows) / len(ablation_rows)
    avg_raw_m6 = sum(r[3] for r in ablation_rows) / len(ablation_rows)
    assert avg_raw_m4 <= avg_raw_m6 + 5.0


def test_postprocess_restores_random_guessing(ablation_rows):
    for name, _, p4, _, p6 in ablation_rows:
        assert 30.0 <= p4 <= 70.0, name
        assert 30.0 <= p6 <= 70.0, name


def test_benchmark_postprocess_kernel(benchmark):
    from repro.attacks.postprocess import reconnect_key_gates_to_ties
    from repro.attacks.proximity import proximity_attack

    layout = cell_layout(cell_spec("b14"), disk_cache())
    raw = proximity_attack(layout.feol_view())
    benchmark(lambda: reconnect_key_gates_to_ties(raw))
