"""Table I — CCR (%) for ITC'99 benchmarks when split at M4 and M6.

Paper values (author's version): key-net logical CCR ~50% and physical
CCR ~0-2% at both splits, regular-net CCR averaging 15% (M4) and 32%
(M6).  The harness prints each measured row next to the paper's and
asserts the headline claims: the attack cannot beat random guessing on
the key (logical ~50%, physical ~0) while it does recover regular nets,
more of them at the higher split.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _pipeline import cell_spec, disk_cache, table_campaign  # noqa: E402

from repro.runner import cell_layout
from repro.runner.paper_data import render_table1, table12_rows


@pytest.fixture(scope="module")
def table1_rows():
    return table12_rows(table_campaign())


def test_print_table1(table1_rows):
    print()
    print(render_table1(table1_rows))


def test_key_logical_ccr_is_random_guessing(table1_rows):
    """Headline claim: logical CCR ~50% — no better than a coin flip."""
    for name, m4, m6 in table1_rows:
        for run in (m4, m6):
            assert 30.0 <= run.ccr.key_logical_ccr <= 70.0, (
                name,
                run.split_layer,
                run.ccr.key_logical_ccr,
            )


def test_key_physical_ccr_near_zero(table1_rows):
    """Physically correct TIE-to-key-gate matches are (near) zero."""
    for name, m4, m6 in table1_rows:
        for run in (m4, m6):
            assert run.ccr.key_physical_ccr <= 15.0


def test_regular_ccr_improves_with_split_layer(table1_rows):
    """Higher split => fewer broken nets => better regular recovery."""
    improves = sum(
        1 for _, m4, m6 in table1_rows if m6.ccr.regular_ccr >= m4.ccr.regular_ccr
    )
    assert improves >= len(table1_rows) - 1


def test_split_layer_agnostic_for_keys(table1_rows):
    """Sec. IV-A finding 2: key-net security independent of split layer."""
    for name, m4, m6 in table1_rows:
        assert abs(m4.ccr.key_logical_ccr - m6.ccr.key_logical_ccr) < 25.0


def test_benchmark_attack_runtime(benchmark, table1_rows):
    """pytest-benchmark kernel: the proximity attack on one M4 view."""
    view = cell_layout(cell_spec("b14"), disk_cache()).feol_view()
    from repro.attacks.proximity import proximity_attack

    benchmark(lambda: proximity_attack(view))
