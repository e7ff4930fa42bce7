"""Benchmark regression gate: tolerance bands, baselines, update mode."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from check_regression import (  # noqa: E402
    GATES,
    RATIO_TOLERANCE,
    check_payload,
    main,
)


def _attacks_payload(
    cache_speedup: float = 100.0, cold: float = 2.0, cached: float = 0.02
) -> dict:
    return {
        "cache_speedup": cache_speedup,
        "cold_wall_seconds": cold,
        "cached_wall_seconds": cached,
    }


def test_identical_payload_passes():
    payload = _attacks_payload()
    assert check_payload("BENCH_attacks", payload, payload) == []


def test_improvement_never_fails():
    assert (
        check_payload(
            "BENCH_attacks",
            _attacks_payload(cache_speedup=500.0, cold=0.5),
            _attacks_payload(),
        )
        == []
    )


def test_ratio_regression_beyond_tolerance_fails():
    baseline = _attacks_payload(cache_speedup=100.0)
    barely_ok = _attacks_payload(cache_speedup=100.0 * (1 - RATIO_TOLERANCE) + 0.01)
    assert check_payload("BENCH_attacks", barely_ok, baseline) == []
    collapsed = _attacks_payload(cache_speedup=100.0 * (1 - RATIO_TOLERANCE) - 0.1)
    failures = check_payload("BENCH_attacks", collapsed, baseline)
    assert failures and "cache_speedup" in failures[0]


def test_wall_clock_grace_spares_millisecond_baselines():
    # 20ms -> 900ms is a 45x blowup but inside the absolute grace band:
    # scheduler noise on a cache-served rerun must not trip the gate.
    baseline = _attacks_payload(cached=0.02)
    noisy = _attacks_payload(cached=0.9)
    assert check_payload("BENCH_attacks", noisy, baseline) == []
    # a genuine collapse (cache not serving at all) still trips
    broken = _attacks_payload(cached=30.0, cache_speedup=1.1)
    failures = check_payload("BENCH_attacks", broken, baseline)
    assert any("cached_wall_seconds" in f for f in failures)
    assert any("cache_speedup" in f for f in failures)


def test_every_committed_baseline_has_a_gate_and_parses():
    baseline_dir = Path(__file__).resolve().parent.parent / (
        "benchmarks/baselines"
    )
    committed = sorted(baseline_dir.glob("BENCH_*.json"))
    assert {p.stem for p in committed} == set(GATES)
    for path in committed:
        payload = json.loads(path.read_text())
        # every gated metric must be extractable from its own baseline
        for metric in GATES[path.stem]:
            assert metric.extract(payload) > 0


def test_main_checks_and_updates(tmp_path, capsys):
    current = tmp_path / "BENCH_attacks.json"
    current.write_text(json.dumps(_attacks_payload()))
    baselines = tmp_path / "baselines"

    # no baseline yet: the gate fails and says how to create one
    assert main([str(current), "--baseline-dir", str(baselines)]) == 1
    assert "missing baseline" in capsys.readouterr().err

    assert (
        main([str(current), "--baseline-dir", str(baselines), "--update"])
        == 0
    )
    assert main([str(current), "--baseline-dir", str(baselines)]) == 0

    current.write_text(json.dumps(_attacks_payload(cache_speedup=5.0)))
    assert main([str(current), "--baseline-dir", str(baselines)]) == 1


def test_main_rejects_unknown_payloads(tmp_path):
    rogue = tmp_path / "BENCH_rogue.json"
    rogue.write_text("{}")
    assert main([str(rogue)]) == 1


@pytest.mark.parametrize("stem", sorted(GATES))
def test_gate_metrics_are_well_formed(stem):
    for metric in GATES[stem]:
        assert metric.direction in ("higher", "lower")
        assert 0 < metric.tolerance < 1
