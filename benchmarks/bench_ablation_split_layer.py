"""Split-layer agnosticism (Sec. IV-A, finding 2; also future work).

"The logical CCR is similar for both split layers.  This establishes the
fact that the security of our scheme is agnostic to the split layer,
i.e., key-nets can be split at any layer without providing any further
benefit than random guessing does for the attacker."

The harness sweeps the split from M3 to M8 (lifting the key to split+1
each time) on b14 and verifies the key-net metrics stay flat while the
regular-net picture changes dramatically — the contrast that motivates
the paper's proposed trusted-packaging variant (connect key-nets to IO
ports and tie them at package routing).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _pipeline import SEED, cell_spec, disk_cache  # noqa: E402

from repro.attacks.postprocess import reconnect_key_gates_to_ties
from repro.attacks.proximity import proximity_attack
from repro.metrics.ccr import compute_ccr
from repro.phys.layout import build_locked_layout
from repro.runner import cell_layout, locked_design

SWEEP_LAYERS = (3, 4, 5, 6, 7, 8)


@pytest.fixture(scope="module")
def sweep_rows():
    locked = locked_design(cell_spec("b14"), disk_cache()).locked
    rows = []
    for split in SWEEP_LAYERS:
        layout = build_locked_layout(locked, split_layer=split, seed=SEED)
        view = layout.feol_view()
        result = reconnect_key_gates_to_ties(proximity_attack(view))
        ccr = compute_ccr(result)
        rows.append(
            (
                split,
                ccr.key_logical_ccr,
                ccr.key_physical_ccr,
                ccr.regular_ccr,
                view.broken_net_count,
            )
        )
    return rows


def test_print_sweep(sweep_rows):
    from repro.utils.tables import render_table

    header = ["split", "key logical CCR", "key physical CCR", "regular CCR", "broken nets"]
    body = [
        [f"M{s}", f"{kl:.0f}", f"{kp:.0f}", f"{rc:.0f}", b]
        for s, kl, kp, rc, b in sweep_rows
    ]
    print()
    print(
        render_table(
            "Split-layer sweep on b14 (key lifted to split+1 each time)",
            header,
            body,
            note="key metrics must stay flat; regular metrics may vary",
        )
    )


def test_key_logical_ccr_flat_across_layers(sweep_rows):
    values = [row[1] for row in sweep_rows]
    assert max(values) - min(values) < 30.0
    for value in values:
        assert 25.0 <= value <= 75.0


def test_key_physical_ccr_low_everywhere(sweep_rows):
    assert all(row[2] <= 15.0 for row in sweep_rows)


def test_broken_regular_nets_shrink_with_split(sweep_rows):
    broken = [row[4] for row in sweep_rows]
    assert broken[0] >= broken[-1]


def test_benchmark_view_kernel(benchmark):
    layout = cell_layout(cell_spec("b14"), disk_cache())
    benchmark(lambda: layout.feol_view())
