"""End-to-end flow, security-layer math, and Table III defense tests."""

import math

import pytest

from repro.benchgen import c17
from repro.core import (
    SplitLockConfig,
    SplitLockFlow,
    brute_force_work_factor,
    constrained_keyspace_size,
    is_negligible,
    keyspace_size,
    security_bits,
    theorem1_bound,
)
from repro.core.config import LayoutConfig
from repro.locking import AtpgLockConfig
from repro.runner import AttackCampaignSpec, run_attack_campaign
from tests.conftest import build_random_circuit


# ----------------------------------------------------------------------
# Security layer (Sec. II-C)
# ----------------------------------------------------------------------
def test_theorem1_bound_values():
    assert theorem1_bound(1) == 0.5
    assert theorem1_bound(128) == pytest.approx(2.0**-128)
    assert theorem1_bound(10, epsilon=0.1) == pytest.approx(0.6**10)


def test_theorem1_bound_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        theorem1_bound(8, epsilon=0.5)


def test_negligibility():
    assert is_negligible(theorem1_bound(128), security_parameter=128)
    assert not is_negligible(0.3, security_parameter=128)


def test_keyspace_sizes():
    assert keyspace_size(8) == 256
    assert constrained_keyspace_size(8, 4) == math.comb(8, 4)
    # seeing the TIE polarities costs only ~log2(sqrt(pi k/2)) bits
    assert security_bits(128, 64) > 120
    assert security_bits(128) == 128.0


def test_brute_force_work_factor_is_astronomical():
    seconds = brute_force_work_factor(128)
    assert seconds > 1e20  # far beyond any real budget


# ----------------------------------------------------------------------
# End-to-end flow
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def flow_result():
    config = SplitLockConfig(
        lock=AtpgLockConfig(key_bits=12, seed=6, run_lec=True),
        layout=LayoutConfig(seed=4),
        split_layers=(4, 6),
    )
    circuit = build_random_circuit(50, num_inputs=12, num_gates=180, num_outputs=8)
    flow = SplitLockFlow(config)
    return flow, flow.run(circuit)


def test_flow_produces_all_layouts(flow_result):
    _, result = flow_result
    assert result.lock_report.lec_equivalent is True
    assert set(result.split_layouts) == {4, 6}
    assert result.prelift_layout.split_layer is None
    assert result.split_layouts[4].split_layer == 4


def test_flow_layout_costs(flow_result):
    _, result = flow_result
    costs = result.layout_costs()
    assert {"unprotected", "prelift", "M4", "M6"} <= set(costs)
    base = costs["unprotected"]
    for key in ("prelift", "M4", "M6"):
        deltas = costs[key].delta_percent(base)
        assert all(abs(v) < 400 for v in deltas.values())


def test_flow_evaluation_metrics(flow_result):
    flow, result = flow_result
    evaluation = flow.evaluate_split(result, 4, hd_patterns=2048)
    assert 0 <= evaluation.ccr.key_logical_ccr <= 100
    assert evaluation.ccr.key_physical_ccr <= 50
    assert evaluation.hd_oer.oer_percent > 50
    assert evaluation.broken_nets > 0


def test_flow_handles_sequential_inputs():
    from repro.benchgen import GeneratorConfig, generate_random_circuit

    seq = generate_random_circuit(
        GeneratorConfig(num_inputs=8, num_outputs=4, num_gates=120, num_dffs=6),
        seed=9,
        name="seqflow",
    )
    config = SplitLockConfig(
        lock=AtpgLockConfig(key_bits=8, seed=7, run_lec=True),
        split_layers=(4,),
    )
    flow = SplitLockFlow(config)
    result = flow.run(seq)
    assert result.lock_report.lec_equivalent is True
    assert not result.original.is_sequential  # core was extracted


def test_flow_on_c17_smoke():
    config = SplitLockConfig(
        lock=AtpgLockConfig(
            key_bits=6, max_support=5, max_minterms=16, seed=1
        ),
        split_layers=(4,),
    )
    flow = SplitLockFlow(config)
    result = flow.run(c17())
    evaluation = flow.evaluate_split(result, 4, hd_patterns=256)
    assert result.locked.key_length == 6
    assert evaluation.hd_oer.patterns == 256


# ----------------------------------------------------------------------
# Table III as attack x defense cells (prior art vs the proposed lock)
# ----------------------------------------------------------------------
#: Cold c432 values at 2,048 HD patterns: (PNR, CCR, HD, OER) in percent.
TABLE3_C432_GOLDEN = {
    "routing-perturbation": (64.7619, 64.7619, 33.8518, 96.4844),  # [22]
    "wire-lifting": (1.6854, 1.6854, 46.4146, 98.7793),  # [12]
    "beol-restore": (0.5618, 0.5618, 51.2207, 99.5605),  # [13]
    "proposed": (6.25, 6.25, 40.8552, 100.0),
}


@pytest.fixture(scope="module")
def table3_c432():
    """The proximity attack on [22]/[12]/[13] over the unlocked design
    (``key_bits=0``) and on the proposed 32-bit lock, all cold."""
    common = dict(
        benchmarks=("c432",),
        scenarios=("proximity",),
        split_layers=(4,),
        hd_patterns=2048,
    )
    prior_art = AttackCampaignSpec(
        defenses=tuple(TABLE3_C432_GOLDEN)[:3], key_bits=(0,), **common
    )
    proposed = AttackCampaignSpec(key_bits=(32,), **common)
    result = run_attack_campaign(
        prior_art.cells() + proposed.cells(), workers=1, use_cache=False
    )
    rows = {}
    for r in result.cells:
        outcome = r.outcome
        if r.cell.defense is None:
            scheme, ccr = "proposed", outcome.ccr.key_physical_ccr
        else:
            scheme = r.cell.defense.name
            ccr = outcome.diagnostics["defense"]["protected_ccr"]
        rows[scheme] = (
            outcome.pnr.pnr_percent,
            ccr,
            outcome.hd_oer.hd_percent,
            outcome.hd_oer.oer_percent,
        )
    return rows


def test_table3_c432_golden(table3_c432):
    for scheme, golden in TABLE3_C432_GOLDEN.items():
        assert table3_c432[scheme] == pytest.approx(golden, abs=1e-3), scheme


def test_routing_perturbation_is_weak(table3_c432):
    pnr, ccr, _, _ = table3_c432["routing-perturbation"]
    assert ccr > 35.0  # the attack recovers most
    assert pnr > 35.0


def test_wire_lifting_is_strong(table3_c432):
    _, ccr, _, oer = table3_c432["wire-lifting"]
    assert ccr < 10.0
    assert oer > 90.0


def test_beol_restore_is_strong(table3_c432):
    _, ccr, hd, _ = table3_c432["beol-restore"]
    assert ccr < 10.0
    assert hd > 20.0


def test_defense_ordering_matches_table3(table3_c432):
    """[22] leaves far more recoverable structure than [12]/[13] and
    the proposed lock."""
    pnr22, ccr22, _, _ = table3_c432["routing-perturbation"]
    for scheme in ("wire-lifting", "beol-restore", "proposed"):
        pnr, ccr, _, _ = table3_c432[scheme]
        assert pnr22 > pnr and ccr22 > ccr, scheme
