"""Campaign runner: spec expansion, parity, caching, CLI.

The two load-bearing guarantees:

* **parity** — parallel execution produces bit-identical metrics to
  serial execution (cells are pure functions of their spec);
* **invalidation** — the on-disk cache is keyed by the full spec, so
  changing any field (seed, key bits, split layer, scale, budgets)
  recomputes instead of serving stale artifacts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.evaluate import AttackOutcome
from repro.attacks.proximity import ProximityAttackConfig
from repro.runner import (
    AttackCampaignSpec,
    CampaignSpec,
    CellSpec,
    attack_smoke_campaign,
    cell_attack,
    parse_benchmark,
    proximity_cell,
    run_campaign,
    run_cost_campaign,
    smoke_campaign,
)
from repro.runner.cli import main as cli_main
from repro.runner.spec import parse_spec_payload, spec_payload
from repro.runner.stages import attack_payload, lock_payload
from repro.utils.artifact_cache import ArtifactCache, spec_key

#: A tiny grid: every stage exercised, seconds of runtime.
TINY = CampaignSpec(
    benchmarks=("b14", "random:i8-o4-g60"),
    split_layers=(4, 6),
    key_bits=(12,),
    scale=0.03,
    hd_patterns=512,
    max_candidates=60,
)


@pytest.fixture(scope="module")
def serial_result():
    return run_campaign(TINY, workers=1, use_cache=False)


# ---------------------------------------------------------------------------
# Spec expansion


def test_spec_expands_full_grid():
    cells = TINY.cells()
    assert len(cells) == 4
    assert [c.cell_id for c in cells] == [
        "b14/M4/k12",
        "b14/M6/k12",
        "random:i8-o4-g60/M4/k12",
        "random:i8-o4-g60/M6/k12",
    ]
    for cell in cells:
        assert cell.hd_patterns == 512
        assert cell.scale == 0.03


def test_spec_rejects_unknown_benchmark():
    with pytest.raises(KeyError):
        CampaignSpec(benchmarks=("b99",))
    with pytest.raises(ValueError):
        CampaignSpec(benchmarks=("random:nonsense",))


def test_spec_rejects_negative_key_sizes():
    with pytest.raises(ValueError, match="key sizes"):
        CampaignSpec(benchmarks=("b14",), key_bits=(16, -5))
    with pytest.raises(ValueError, match="key sizes"):
        AttackCampaignSpec(benchmarks=("b14",), key_bits=(-5,))
    # zero bits stays valid: the unlocked design
    assert CampaignSpec(benchmarks=("b14",), key_bits=(0,)).cells()
    assert AttackCampaignSpec(benchmarks=("b14",), key_bits=(0,)).cells()


def _smoke_payloads() -> list[dict]:
    return [
        spec_payload(smoke_campaign()),
        spec_payload(attack_smoke_campaign()),
    ]


@pytest.mark.parametrize(
    "envelope", _smoke_payloads(), ids=["campaign", "attacks"]
)
@pytest.mark.parametrize(
    "field, value",
    [
        ("benchmarks", [5]),
        ("benchmarks", [[]]),
        ("seed", "x"),
        ("split_layers", ["x"]),
        ("hd_patterns", -1),
        ("scale", "a"),
        ("seed", True),
        ("key_bits", [False]),
        ("split_layers", [0]),
        ("utilization", 0),
        ("scale", float("nan")),
    ],
)
def test_malformed_spec_fields_fail_at_parse_time(envelope, field, value):
    """Bad field types and ranges never reach the cells or the workers."""
    mutated = {"kind": envelope["kind"], "spec": {**envelope["spec"]}}
    mutated["spec"][field] = value
    with pytest.raises(ValueError):
        parse_spec_payload(mutated)


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(
    envelope=st.sampled_from(_smoke_payloads()),
    data=st.data(),
)
def test_single_field_mutations_raise_only_value_error(envelope, data):
    """Any one field replaced by any JSON value: parsing and expanding
    the spec either succeeds or raises ``ValueError`` (a 400), never
    another exception type."""
    field = data.draw(st.sampled_from(sorted(envelope["spec"])))
    mutated = {"kind": envelope["kind"], "spec": {**envelope["spec"]}}
    mutated["spec"][field] = data.draw(_JSON_VALUES)
    try:
        parse_spec_payload(mutated).cells()
    except ValueError:
        pass


def test_emitted_payloads_parse_to_the_same_key():
    for envelope in _smoke_payloads():
        spec = parse_spec_payload(envelope)
        assert spec_key(spec_payload(spec)) == spec_key(envelope)


def test_random_descriptor_round_trip():
    config = parse_benchmark("random:i16-o8-g240-d5")
    assert (config.num_inputs, config.num_outputs) == (16, 8)
    assert (config.num_gates, config.num_dffs) == (240, 5)
    assert parse_benchmark("b14") is None


def test_cell_payload_round_trip():
    cell = TINY.cells()[0]
    clone = CellSpec.from_payload(cell.to_payload())
    assert clone == cell


# ---------------------------------------------------------------------------
# Parity: serial == parallel, bit for bit


def test_serial_campaign_metrics_sane(serial_result):
    assert len(serial_result.cells) == 4
    for result in serial_result.cells:
        run = result.run
        assert isinstance(run, AttackOutcome)
        assert 0.0 <= run.ccr.key_logical_ccr <= 100.0
        assert run.hd_oer.patterns == 512


def test_parallel_matches_serial_bit_identical(serial_result):
    parallel = run_campaign(TINY, workers=2, use_cache=False)
    assert parallel.runs() == serial_result.runs()


def test_cached_rerun_matches_and_hits(tmp_path, serial_result):
    first = run_campaign(TINY, workers=1, cache_dir=tmp_path)
    assert first.runs() == serial_result.runs()
    second = run_campaign(TINY, workers=1, cache_dir=tmp_path)
    assert second.runs() == serial_result.runs()
    stats = second.cache_stats()
    assert stats.misses == 0
    assert stats.stores == 0
    # The fused path (the default) probes every stage cache, so total
    # hits exceed the cell count; the attack stage must hit once per cell.
    assert stats.stages["attack"].hits == len(TINY.cells())


# ---------------------------------------------------------------------------
# Cache keying and invalidation


def test_cache_shares_lock_stage_across_splits(tmp_path):
    cells = TINY.cells()
    first, second = map(proximity_cell, cells[:2])
    assert lock_payload(cells[0]) == lock_payload(cells[1])
    assert attack_payload(first) != attack_payload(second)
    run_campaign([cells[0]], workers=1, cache_dir=tmp_path)
    cache = ArtifactCache(tmp_path)
    assert cache.contains("lock", lock_payload(cells[1]))
    assert cache.contains("attack", attack_payload(first))
    assert not cache.contains("attack", attack_payload(second))
    assert not (tmp_path / "run").exists()  # no classic run stage


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", 2020),
        ("key_bits", 14),
        ("split_layer", 5),
        ("scale", 0.04),
        ("hd_patterns", 256),
        ("attack", ProximityAttackConfig(candidates_per_sink=8)),
    ],
)
def test_cache_invalidates_on_spec_change(field, value):
    from dataclasses import replace

    base = TINY.cells()[0]
    changed = replace(base, **{field: value})
    assert spec_key(attack_payload(proximity_cell(base))) != spec_key(
        attack_payload(proximity_cell(changed))
    )


def test_changed_spec_recomputes_not_reuses(tmp_path):
    from dataclasses import replace

    base = TINY.cells()[0]
    run_campaign([base], workers=1, cache_dir=tmp_path)
    changed = replace(base, hd_patterns=256)
    [result] = run_campaign([changed], workers=1, cache_dir=tmp_path).cells
    # lock + layout stages are spec-identical and must be served from
    # cache; the attack stage depends on hd_patterns and must recompute.
    assert result.cache.hits == 2
    assert result.cache.stores == 1
    assert result.run.hd_oer.patterns == 256


def test_corrupt_cache_entry_is_recomputed(tmp_path):
    base = TINY.cells()[0]
    run_campaign([base], workers=1, cache_dir=tmp_path)
    for path in tmp_path.glob("*/*.pkl"):
        path.write_bytes(b"not a pickle")
    [result] = run_campaign([base], workers=1, cache_dir=tmp_path).cells
    assert result.cache.hits == 0
    assert result.run == cell_attack(proximity_cell(base))


# ---------------------------------------------------------------------------
# Cost campaign and CLI


def test_cost_campaign_produces_stage_deltas(tmp_path):
    cell = CellSpec(
        benchmark="b14", key_bits=10, scale=0.03, max_candidates=60
    )
    data = run_cost_campaign([cell], workers=1, cache_dir=tmp_path)
    assert set(data) == {"b14"}
    assert set(data["b14"]) == {"prelift", "M4", "M6"}
    for deltas in data["b14"].values():
        assert set(deltas) == {"area", "power", "timing"}


def test_cli_smoke_cell_passes(tmp_path, capsys):
    argv = ["smoke", "--cache-dir", str(tmp_path), "--workers", "1"]
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    assert "Campaign smoke cell" in out
    # a second invocation is served entirely from the cache
    assert cli_main(argv) == 0


def test_cli_sweep_runs_custom_grid(tmp_path, capsys):
    json_path = tmp_path / "sweep.json"
    assert (
        cli_main(
            [
                "sweep",
                "--benchmarks",
                "random:i8-o4-g60",
                "--splits",
                "4",
                "--key-bits",
                "10",
                "--hd-patterns",
                "256",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--workers",
                "1",
                "--json",
                str(json_path),
            ]
        )
        == 0
    )
    assert "random:i8-o4-g60/M4/k10" in capsys.readouterr().out
    import json

    payload = json.loads(json_path.read_text())
    assert payload[0]["cell"]["benchmark"] == "random:i8-o4-g60"


def test_smoke_campaign_is_single_small_cell():
    cells = smoke_campaign().cells()
    assert len(cells) == 1
    assert cells[0].hd_patterns <= 4096


# ---------------------------------------------------------------------------
# Result keying and worker sizing


def test_result_keys_carry_seeds_for_duplicate_benchmark_grids():
    """Two cells differing only in a seed must not collapse in runs()."""
    from dataclasses import replace

    from repro.runner.engine import CampaignResult, CellResult
    from repro.utils.artifact_cache import CacheStats

    base = CellSpec(benchmark="b14", split_layer=4, key_bits=12)
    twin = replace(base, hd_seed=base.hd_seed + 1)
    result = CampaignResult(
        cells=[
            CellResult(cell=c, run=object(), seconds=0.0, cache=CacheStats())
            for c in (base, twin)
        ]
    )
    runs = result.runs()
    assert len(runs) == 2
    assert base.result_key in runs and twin.result_key in runs
    assert base.result_key[:3] == twin.result_key[:3] == ("b14", 4, 12)


def test_attack_result_keys_distinguish_seed_twins():
    from dataclasses import replace

    from repro.runner.engine import AttackCampaignResult, AttackCellResult
    from repro.runner.spec import AttackCampaignSpec
    from repro.utils.artifact_cache import CacheStats

    cells = AttackCampaignSpec(
        benchmarks=("b14",), scenarios=("random",), key_bits=(12,)
    ).cells()
    twins = [
        replace(acell, cell=replace(acell.cell, seed=acell.cell.seed + d))
        for acell in cells
        for d in (0, 1)
    ]
    result = AttackCampaignResult(
        cells=[
            AttackCellResult(
                cell=c, outcome=object(), seconds=0.0, cache=CacheStats()
            )
            for c in twins
        ]
    )
    outcomes = result.outcomes()
    assert len(outcomes) == 2
    assert all(key[-1] == "random" for key in outcomes)


def test_default_workers_respects_affinity(monkeypatch):
    """The pool must size to the process's CPU mask, not the machine."""
    import os

    from repro.runner.engine import default_workers

    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    if hasattr(os, "process_cpu_count"):
        monkeypatch.setattr(os, "process_cpu_count", lambda: 3)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert default_workers() == 3
    monkeypatch.setenv("REPRO_WORKERS", "2")
    assert default_workers() == 2
