"""Attack-scenario campaigns: expansion, parity, caching, CLI."""

from __future__ import annotations

import pytest

from repro.adversary.scenario import DEFAULT_ATTACK_BUDGET
from repro.runner import (
    AttackCampaignSpec,
    AttackCellSpec,
    CellSpec,
    cell_attack,
    run_attack_campaign,
)
from repro.runner.cli import main as cli_main
from repro.runner.spec import parse_scenario
from repro.runner.stages import attack_payload
from repro.utils.artifact_cache import ArtifactCache, spec_key

#: Tiny threat-model grid: one benchmark, three engines, seconds of
#: runtime (the learned engine trains once per process and memoises).
TINY = AttackCampaignSpec(
    benchmarks=("random:i10-o5-g90",),
    scenarios=("netflow", "proximity", "random"),
    split_layers=(4,),
    key_bits=(10,),
    hd_patterns=512,
    max_candidates=60,
)


@pytest.fixture(scope="module")
def serial_result():
    return run_attack_campaign(TINY, workers=1, use_cache=False)


def test_attack_spec_expands_scenario_grid():
    cells = TINY.cells()
    assert len(cells) == 3
    assert [c.cell_id for c in cells] == [
        "random:i10-o5-g90/M4/k10/netflow",
        "random:i10-o5-g90/M4/k10/proximity",
        "random:i10-o5-g90/M4/k10/random",
    ]
    for cell in cells:
        # scenarios are resolved at expansion time
        assert cell.scenario.seed is not None
        assert cell.scenario.budget == DEFAULT_ATTACK_BUDGET


def test_attack_spec_rejects_unknown_scenarios():
    with pytest.raises(KeyError):
        AttackCampaignSpec(benchmarks=("b14",), scenarios=("nope",))
    with pytest.raises(ValueError):
        AttackCampaignSpec(benchmarks=(), scenarios=("random",))


def test_attack_payload_round_trip():
    cell = TINY.cells()[0]
    assert AttackCellSpec.from_payload(cell.to_payload()) == cell
    assert AttackCampaignSpec.from_payload(TINY.to_payload()) == TINY


def test_parallel_matches_serial(serial_result):
    parallel = run_attack_campaign(TINY, workers=2, use_cache=False)
    serial_outcomes = serial_result.outcomes()
    parallel_outcomes = parallel.outcomes()
    assert serial_outcomes.keys() == parallel_outcomes.keys()
    for key, serial_outcome in serial_outcomes.items():
        other = parallel_outcomes[key]
        assert serial_outcome.ccr == other.ccr
        assert serial_outcome.pnr == other.pnr
        assert serial_outcome.hd_oer == other.hd_oer
        assert serial_outcome.diagnostics == other.diagnostics


def test_new_engines_beat_random_floor(serial_result):
    outcomes = serial_result.outcomes()
    floor = next(o for k, o in outcomes.items() if k[-1] == "random")
    for key, outcome in outcomes.items():
        if key[-1] == "random":
            continue
        assert outcome.ccr.regular_ccr > floor.ccr.regular_ccr, key


def test_cached_rerun_is_bit_identical(tmp_path, serial_result):
    cache_dir = tmp_path / "cache"
    cold = run_attack_campaign(TINY, workers=1, cache_dir=cache_dir)
    assert cold.cache_stats().misses > 0
    warm = run_attack_campaign(TINY, workers=1, cache_dir=cache_dir)
    stats = warm.cache_stats()
    # The fused path (the default) probes every stage cache, so total
    # hits exceed the cell count; the attack stage must hit per cell.
    assert stats.misses == 0
    assert stats.stages["attack"].hits == len(TINY.cells())
    for a, b in zip(cold.cells, warm.cells):
        assert a.outcome.ccr == b.outcome.ccr
        assert a.outcome.hd_oer == b.outcome.hd_oer
        assert a.outcome.diagnostics == b.outcome.diagnostics
    # and identical to the uncached computation
    for a, b in zip(serial_result.cells, warm.cells):
        assert a.outcome.ccr == b.outcome.ccr


def test_attack_cache_key_tracks_scenario_fields():
    base = TINY.cells()[0]
    key_base = spec_key(attack_payload(base))
    reseeded = AttackCellSpec(
        cell=base.cell,
        scenario=parse_scenario("netflow").resolve().__class__(
            **{**base.scenario.to_payload(), "seed": 999}
        ),
    )
    assert spec_key(attack_payload(reseeded)) != key_base
    other_cell = AttackCellSpec(
        cell=CellSpec(
            benchmark=base.cell.benchmark,
            split_layer=base.cell.split_layer,
            key_bits=base.cell.key_bits,
            seed=base.cell.seed + 1,
            scale=base.cell.scale,
            hd_patterns=base.cell.hd_patterns,
            max_candidates=base.cell.max_candidates,
        ),
        scenario=base.scenario,
    )
    assert spec_key(attack_payload(other_cell)) != key_base


def test_cell_attack_shares_lock_and_layout(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    first, second = TINY.cells()[0], TINY.cells()[1]
    cell_attack(first, cache)
    hits_before = cache.stats.hits
    cell_attack(second, cache)
    # The sibling scenario reuses the cached lock + layout artifacts.
    assert cache.stats.hits >= hits_before + 2


def test_cli_attacks_smoke_grid(tmp_path, capsys):
    code = cli_main(
        [
            "attacks",
            "--benchmarks", "random:i10-o5-g90",
            "--scenarios", "netflow,random",
            "--splits", "4",
            "--key-bits", "10",
            "--hd-patterns", "512",
            "--workers", "1",
            "--cache-dir", str(tmp_path / "cli-cache"),
            "--json", str(tmp_path / "out.json"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "netflow" in out and "random" in out
    import json

    payload = json.loads((tmp_path / "out.json").read_text())
    assert len(payload) == 2
    assert {entry["cell"]["scenario"]["name"] for entry in payload} == {
        "netflow",
        "random",
    }


def test_grid_verdict_detects_missing_floor(serial_result):
    from repro.adversary import grid_verdict

    outcomes = serial_result.outcomes()
    ok, problems = grid_verdict(outcomes)
    assert ok, problems
    # every scenario scores its recovered netlist on the compiled engine
    assert {o.sim_engine for o in outcomes.values()} == {"compiled-array"}
    # a missing random floor is reported
    partial = {k: v for k, v in outcomes.items() if k[-1] != "random"}
    ok, problems = grid_verdict(partial)
    assert not ok and any("floor" in p for p in problems)


def test_cli_attacks_requires_benchmarks():
    assert cli_main(["attacks"]) == 2


def test_cli_attacks_rejects_unknown_scenario():
    assert (
        cli_main(
            ["attacks", "--benchmarks", "b14", "--scenarios", "bogus"]
        )
        == 2
    )
