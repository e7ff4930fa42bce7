"""Artifact cache and REPRO_* environment-knob parsing."""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Any, Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.artifact_cache import (
    TMP_SUFFIX,
    ArtifactCache,
    CacheStats,
    StageStats,
    _canonical,
    spec_key,
)
from repro.utils.env import (
    env_cache_dir,
    env_flag,
    env_int,
    env_name,
    env_positive_int,
    env_scale,
)


# ---------------------------------------------------------------------------
# spec_key canonicalisation


def test_spec_key_stable_under_ordering():
    assert spec_key({"a": 1, "b": (2, 3)}) == spec_key({"b": [2, 3], "a": 1})


def test_spec_key_sensitive_to_values():
    base = {"seed": 2019, "key_bits": 128}
    assert spec_key(base) != spec_key({**base, "seed": 2020})
    assert spec_key(base) != spec_key({**base, "key_bits": 64})
    assert spec_key(base) != spec_key({**base, "extra": None})


def test_spec_key_canonicalises_dataclasses():
    from repro.attacks.proximity import ProximityAttackConfig

    assert spec_key({"attack": ProximityAttackConfig()}) == spec_key(
        {"attack": ProximityAttackConfig()}
    )
    assert spec_key({"attack": ProximityAttackConfig()}) != spec_key(
        {"attack": ProximityAttackConfig(seed=8)}
    )


def test_spec_key_rejects_unkeyable_values():
    with pytest.raises(TypeError):
        spec_key({"bad": object()})


def _canonical_via_asdict(value: Any) -> Any:
    """``_canonical`` as it was before the field-by-field walk: every
    dataclass goes through ``asdict`` (kept verbatim as the oracle)."""
    if is_dataclass(value) and not isinstance(value, type):
        return _canonical_via_asdict(asdict(value))
    if isinstance(value, Mapping):
        return {str(k): _canonical_via_asdict(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical_via_asdict(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__} for cache key")


def _rendered(canonicalise, value: Any) -> str:
    """What ``spec_key`` hashes, or the TypeError's message."""
    try:
        return json.dumps(canonicalise(value), sort_keys=True, separators=(",", ":"))
    except TypeError as exc:
        return f"TypeError: {exc}"


def _assert_same_rendering(value: Any) -> None:
    assert _rendered(_canonical, value) == _rendered(_canonical_via_asdict, value)


def _service_cells() -> list:
    """Twenty service-style jobs' cells: one random-guess cell on a
    scaled b14 lock, alternating lock seeds, a new HD seed each."""
    from repro.runner.spec import DEFAULT_HD_SEED, AttackCampaignSpec

    return [
        AttackCampaignSpec(
            benchmarks=("b14",),
            scenarios=("random",),
            split_layers=(4,),
            key_bits=(16,),
            seed=(2019, 2020)[index % 2],
            scale=0.03,
            hd_patterns=2_048,
            hd_seed=DEFAULT_HD_SEED + index,
            max_candidates=80,
        ).cells()[0]
        for index in range(20)
    ]


def test_canonical_renders_stage_payloads_like_asdict():
    from repro.runner.profiles import (
        attack_smoke_campaign,
        current_profile,
        defense_smoke_campaign,
    )
    from repro.runner.spec import proximity_cell
    from repro.runner.stages import (
        attack_payload,
        defense_payload,
        layout_payload,
        lock_payload,
        unprotected_payload,
    )

    grid = attack_smoke_campaign().cells() + defense_smoke_campaign().cells()
    tables = [proximity_cell(cell) for cell in current_profile().table_campaign().cells()]
    service = _service_cells()
    assert (len(grid), len(tables), len(service)) == (22, 12, 20)
    defended = 0
    for acell in [*grid, *tables, *service]:
        cell = acell.cell
        payloads = [
            lock_payload(cell),
            layout_payload(cell),
            layout_payload(cell, prelift=True),
            unprotected_payload(cell),
            attack_payload(acell),
            cell,
            acell,
        ]
        if acell.defense is not None:
            payloads.append(defense_payload(cell, acell.defense))
            defended += 1
        for payload in payloads:
            _assert_same_rendering(payload)
            _assert_same_rendering({"payload": payload, "cache_version": 6})
    assert defended > 0


def test_stage_keys_are_pinned():
    """The lock/layout/defense/attack keys of two smoke cells, pinned.

    The random-logic attack-smoke cell keys a generator config; the
    defended matrix cell keys a defense spec.  A payload refactor that
    moves any of these strands every cached artifact.
    """
    from repro.runner.profiles import attack_smoke_campaign, defense_smoke_campaign
    from repro.runner.stages import (
        attack_payload,
        defense_payload,
        layout_payload,
        lock_payload,
    )

    smoke = attack_smoke_campaign().cells()[-1]
    assert smoke.cell_id == "random:i14-o8-g200/M4/k16/oracle-key"
    assert spec_key(lock_payload(smoke.cell)) == (
        "394933103c9b11040b61e443c0a505ccf7434de2977710a6011ae5f262070976"
    )
    assert spec_key(layout_payload(smoke.cell)) == (
        "56ca9eb59eff10d83fe5fb073b8ec8e13d175846d9761d3c930c5f078b48586d"
    )
    assert spec_key(attack_payload(smoke)) == (
        "1513708276163a368cc51b76a6294dbabadbd121b20d45a234bdb91fe6e649d3"
    )

    defended = next(
        c for c in defense_smoke_campaign().cells() if c.defense is not None
    )
    assert defended.cell_id == "b14/M4/k16/routing-perturbation/netflow"
    assert spec_key(lock_payload(defended.cell)) == (
        "96fca12cd5db8c670fc86b0ef9832caf7f8f79c86661e62b69fe403f3e81dc3f"
    )
    assert spec_key(layout_payload(defended.cell)) == (
        "86fc61258f067088f91e657c4b9b8b0b69d02b58a5aa010c8c1b8cb84962727b"
    )
    assert spec_key(defense_payload(defended.cell, defended.defense)) == (
        "7ec06c419465fdbe2d2f33a60c4c577b674bdd44370ffae01c8108b1f9f7b3e5"
    )
    assert spec_key(attack_payload(defended)) == (
        "bd0b8ed3ca635f8d0e2824d7261762e5a5a1379dad21a69487d73290927a8ce6"
    )


@dataclass
class _Node:
    left: Any
    right: Any = None
    hidden: Any = field(default=None, init=False)


@dataclass(frozen=True)
class _Leaf:
    value: Any


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
)
_KEYS = st.text(max_size=4) | st.integers(-3, 3)


def _nested(inner):
    return (
        st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3)
        | st.dictionaries(_KEYS, inner, max_size=3)
        | st.builds(_Node, inner, inner)
        | st.builds(_Leaf, inner)
        | st.frozensets(st.integers(0, 3), max_size=2)
        | st.sets(st.integers(0, 3), max_size=2)
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_SCALARS, _nested, max_leaves=16))
def test_canonical_matches_asdict_on_nested_values(value):
    _assert_same_rendering(value)


def test_canonical_rejects_sets_like_asdict():
    for value in ({1, 2}, _Node({"a": {3}}), [_Leaf(frozenset())]):
        for canonicalise in (_canonical, _canonical_via_asdict):
            with pytest.raises(TypeError, match="cannot canonicalise"):
                canonicalise(value)


# ---------------------------------------------------------------------------
# ArtifactCache behaviour


def test_cache_round_trip(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = spec_key({"x": 1})
    assert cache.get("stage", key) is ArtifactCache._MISS
    cache.put("stage", key, {"payload": [1, 2, 3]})
    assert cache.get("stage", key) == {"payload": [1, 2, 3]}
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.entry_count() == 1


def test_get_or_create_computes_once(tmp_path):
    cache = ArtifactCache(tmp_path)
    calls = []

    def create():
        calls.append(1)
        return "value"

    payload = {"a": 1}
    assert cache.get_or_create("s", payload, create) == "value"
    assert cache.get_or_create("s", payload, create) == "value"
    assert len(calls) == 1


def test_corrupt_entry_is_evicted_and_recomputed(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = spec_key({"a": 1})
    cache.put("s", key, 42)
    next(tmp_path.glob("s/*.pkl")).write_bytes(b"garbage")
    assert cache.get("s", key) is ArtifactCache._MISS
    assert cache.entry_count() == 0


def test_clear_removes_everything(tmp_path):
    cache = ArtifactCache(tmp_path)
    for index in range(3):
        cache.put("s", spec_key({"i": index}), index)
    assert cache.clear() == 3
    assert cache.entry_count() == 0
    assert cache.size_bytes() == 0


# ---------------------------------------------------------------------------
# Per-stage stats, atomic writes, orphan sweeping


def test_per_stage_stats_tracked_separately(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.get_or_create("lock", {"a": 1}, lambda: "locked")
    cache.get_or_create("lock", {"a": 1}, lambda: "locked")
    cache.get_or_create("run", {"a": 1}, lambda: "ran")
    lock = cache.stats.stages["lock"]
    assert (lock.hits, lock.misses, lock.stores) == (1, 1, 1)
    run = cache.stats.stages["run"]
    assert (run.hits, run.misses, run.stores) == (0, 1, 1)
    assert cache.stats.hits == 1 and cache.stats.misses == 2
    # compute wall-clock attributed to the stage that paid it
    assert lock.compute_seconds >= 0 and run.compute_seconds >= 0


def test_cache_stats_merge_merges_stages():
    a = CacheStats(hits=1, misses=2, stores=2)
    a.stage("run").merge(StageStats(hits=1, misses=2, compute_seconds=0.5))
    b = CacheStats(hits=3, misses=1, stores=1)
    b.stage("run").merge(StageStats(hits=3, misses=1, compute_seconds=0.25))
    b.stage("lock").merge(StageStats(misses=1))
    a.merge(b)
    assert (a.hits, a.misses, a.stores) == (4, 3, 3)
    assert a.stage("run").hits == 4
    assert a.stage("run").compute_seconds == pytest.approx(0.75)
    assert a.stage("lock").misses == 1


def test_put_leaves_no_temp_files(tmp_path):
    cache = ArtifactCache(tmp_path)
    for index in range(5):
        cache.put("s", spec_key({"i": index}), list(range(100)))
    assert cache.orphan_count() == 0
    assert cache.entry_count() == 5


def test_orphan_cleanup_is_age_gated(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.put("s", spec_key({"a": 1}), "keep")
    stage_dir = tmp_path / "s"
    fresh = stage_dir / f"inflight{TMP_SUFFIX}"
    fresh.write_bytes(b"partial write")
    stale = stage_dir / f"abandoned{TMP_SUFFIX}"
    stale.write_bytes(b"partial write")
    old = time.time() - 7200
    os.utime(stale, (old, old))
    assert cache.orphan_count() == 2
    # default sweep spares the young (presumed in-flight) writer
    assert cache.cleanup_orphans() == 1
    assert fresh.exists() and not stale.exists()
    # force-sweep takes everything
    assert cache.cleanup_orphans(max_age_seconds=0) == 1
    assert cache.orphan_count() == 0
    # the real entry was never touched
    assert cache.get("s", spec_key({"a": 1})) == "keep"


def test_failed_put_cleans_its_temp_file(tmp_path):
    cache = ArtifactCache(tmp_path)

    class Unpicklable:
        def __reduce__(self):
            raise RuntimeError("nope")

    with pytest.raises(RuntimeError):
        cache.put("s", spec_key({"a": 1}), Unpicklable())
    assert cache.orphan_count() == 0
    assert cache.entry_count() == 0


# ---------------------------------------------------------------------------
# Environment knobs (the REPRO_SCALE=0 / empty-string fix)


def test_env_scale_unset_and_empty_mean_default(monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert env_scale() is None
    monkeypatch.setenv("REPRO_SCALE", "")
    assert env_scale() is None
    monkeypatch.setenv("REPRO_SCALE", "  ")
    assert env_scale() is None


def test_env_scale_parses_value(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.05")
    assert env_scale() == 0.05


def test_env_scale_rejects_zero_and_garbage(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0")
    with pytest.raises(ValueError, match="must be > 0"):
        env_scale()
    monkeypatch.setenv("REPRO_SCALE", "-1")
    with pytest.raises(ValueError):
        env_scale()
    monkeypatch.setenv("REPRO_SCALE", "fast")
    with pytest.raises(ValueError, match="not a number"):
        env_scale()


def test_env_flag_semantics(monkeypatch):
    monkeypatch.delenv("REPRO_FULL", raising=False)
    assert env_flag("REPRO_FULL") is False
    for truthy in ("1", "true", "YES", "on"):
        monkeypatch.setenv("REPRO_FULL", truthy)
        assert env_flag("REPRO_FULL") is True
    for falsy in ("0", "false", "", "off"):
        monkeypatch.setenv("REPRO_FULL", falsy)
        assert env_flag("REPRO_FULL") is False
    monkeypatch.setenv("REPRO_FULL", "maybe")
    with pytest.raises(ValueError):
        env_flag("REPRO_FULL")


def test_env_int_and_cache_dir(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert env_int("REPRO_WORKERS") is None
    monkeypatch.setenv("REPRO_WORKERS", "4")
    assert env_int("REPRO_WORKERS") == 4
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert env_cache_dir() == tmp_path
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert env_cache_dir().name == "repro-splitlock"


def test_env_attack_seed_semantics(monkeypatch):
    """REPRO_ATTACK_SEED: 0 is a *valid* seed, empty means default."""
    monkeypatch.delenv("REPRO_ATTACK_SEED", raising=False)
    assert env_int("REPRO_ATTACK_SEED", 2019) == 2019
    monkeypatch.setenv("REPRO_ATTACK_SEED", "")
    assert env_int("REPRO_ATTACK_SEED", 2019) == 2019
    monkeypatch.setenv("REPRO_ATTACK_SEED", "0")
    assert env_int("REPRO_ATTACK_SEED", 2019) == 0
    monkeypatch.setenv("REPRO_ATTACK_SEED", "soon")
    with pytest.raises(ValueError, match="not an integer"):
        env_int("REPRO_ATTACK_SEED", 2019)


def test_env_attack_budget_rejects_zero(monkeypatch):
    """REPRO_ATTACK_BUDGET: explicit 0 is an error, never a default."""
    monkeypatch.delenv("REPRO_ATTACK_BUDGET", raising=False)
    assert env_positive_int("REPRO_ATTACK_BUDGET", 256) == 256
    monkeypatch.setenv("REPRO_ATTACK_BUDGET", "")
    assert env_positive_int("REPRO_ATTACK_BUDGET", 256) == 256
    monkeypatch.setenv("REPRO_ATTACK_BUDGET", "64")
    assert env_positive_int("REPRO_ATTACK_BUDGET", 256) == 64
    for bad in ("0", "-5"):
        monkeypatch.setenv("REPRO_ATTACK_BUDGET", bad)
        with pytest.raises(ValueError, match="must be > 0"):
            env_positive_int("REPRO_ATTACK_BUDGET", 256)


def test_env_attack_engine_selection(monkeypatch):
    """REPRO_ATTACK_ENGINE: validated against the registry, unset = None."""
    from repro.adversary import default_scenario_names, engine_names

    monkeypatch.delenv("REPRO_ATTACK_ENGINE", raising=False)
    assert env_name("REPRO_ATTACK_ENGINE", engine_names()) is None
    monkeypatch.setenv("REPRO_ATTACK_ENGINE", "")
    assert env_name("REPRO_ATTACK_ENGINE", engine_names()) is None
    monkeypatch.setenv("REPRO_ATTACK_ENGINE", "netflow")
    assert env_name("REPRO_ATTACK_ENGINE", engine_names()) == "netflow"
    names = default_scenario_names()
    assert "random" in names  # the floor always rides along
    assert all(n in ("netflow", "netflow-bare", "random") for n in names)
    monkeypatch.setenv("REPRO_ATTACK_ENGINE", "quantum")
    with pytest.raises(ValueError, match="is not one of"):
        env_name("REPRO_ATTACK_ENGINE", engine_names())
    with pytest.raises(ValueError):
        default_scenario_names()
