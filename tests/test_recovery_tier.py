"""The resident recovery: an attack's outcome minus HD/OER, kept in the worker.

:func:`repro.adversary.evaluate.run_scenario` splits at the
attack/metrics boundary: the attack half (a :class:`Recovery`) goes
through the worker-resident tier under
:func:`repro.runner.stages.recovery_payload`, and only the HD/OER sweep
depends on ``hd_seed``/``hd_patterns``.  These tests pin that

* a tier-served outcome equals a fresh compute for cells that differ
  only in the HD/OER budget, for every engine kind and a defended cell;
* outcomes served from one entry share no mutable state;
* the recovery key moves with every attack-stage field but the budget;
* the entry pickles as its own bytes: no view, lock, layout or program;
* outside pool workers every call runs both halves, as before.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import fields, is_dataclass, replace

import pytest

import repro.adversary.evaluate as evaluate
import repro.runner.stages as stages
import repro.runner.worker as worker_module
from repro.adversary.engine import get_engine
from repro.adversary.evaluate import Recovery
from repro.attacks.proximity import ProximityAttackConfig
from repro.defense import resolve_defense
from repro.runner.spec import AttackCampaignSpec, parse_scenario
from repro.runner.stages import (
    attack_payload,
    cell_attack,
    cell_defense,
    cell_layout,
    locked_design,
    recovery_payload,
)
from repro.runner.worker import enable_worker_runtime
from repro.utils.artifact_cache import spec_key

SCENARIOS = ("random", "proximity", "netflow", "learned", "oracle-key")

GRID = AttackCampaignSpec(
    benchmarks=("random:i10-o5-g90",),
    scenarios=SCENARIOS,
    defenses=("none", "wire-lifting-lite"),
    split_layers=(4,),
    key_bits=(10,),
    hd_patterns=512,
    max_candidates=60,
)
CELLS = {
    (c.defense.name if c.defense else "none", c.scenario.name): c
    for c in GRID.cells()
}
BASE = CELLS["none", "random"].cell

#: The cells of the equality test: every engine kind, undefended, plus
#: one defended cell (its ``defense`` and ``recovery`` blocks).
SERVED = [("none", name) for name in SCENARIOS] + [("wire-lifting-lite", "netflow")]

#: Cell changes the recovery must not see.
BUDGET_SHIFTS = {
    "hd_seed": lambda cell: replace(cell, hd_seed=cell.hd_seed + 1),
    "hd_patterns": lambda cell: replace(cell, hd_patterns=640),
}


@pytest.fixture(autouse=True)
def _restore_runtime():
    """Tests flip the process-global tier; never leak it across tests."""
    saved = worker_module._runtime
    yield
    worker_module._runtime = saved


@pytest.fixture(scope="module")
def artifacts():
    """The grid's lock, layout and defended view, built once."""
    saved = worker_module._runtime
    worker_module._runtime = None
    try:
        design = locked_design(BASE)
        layout = cell_layout(BASE, design=design)
        defended = {
            name: cell_defense(BASE, resolve_defense(name), design=design, layout=layout)
            for name in GRID.defenses
            if name != "none"
        }
    finally:
        worker_module._runtime = saved
    return design, layout, defended


def _attack(acell, artifacts):
    design, layout, defended = artifacts
    return cell_attack(
        acell,
        design=design,
        layout=layout,
        defended=defended[acell.defense.name] if acell.defense else None,
    )


def _shifted(acell, shift: str):
    return replace(acell, cell=BUDGET_SHIFTS[shift](acell.cell))


def _entry(acell) -> Recovery:
    runtime = worker_module.active_runtime()
    return runtime.get("recovery", spec_key(recovery_payload(acell)))


# ---------------------------------------------------------------------------
# Served outcomes equal fresh ones


@pytest.mark.parametrize("shift", sorted(BUDGET_SHIFTS))
@pytest.mark.parametrize("defense,scenario", SERVED)
def test_tier_served_outcome_equals_a_fresh_compute(
    artifacts, defense, scenario, shift, monkeypatch
):
    acell = CELLS[defense, scenario]
    shifted = _shifted(acell, shift)
    runtime = enable_worker_runtime(64 << 20)
    first = _attack(acell, artifacts)
    engine = get_engine(acell.scenario.engine)
    runs = []
    monkeypatch.setattr(engine, "run", lambda ctx: runs.append(ctx) or None)
    served = _attack(shifted, artifacts)
    monkeypatch.undo()
    assert runs == []  # the attack half came from the tier
    assert runtime.stats.stages["recovery"].hits == 1
    assert runtime.stats.stages["recovery"].misses == 1

    enable_worker_runtime(0)
    fresh = _attack(shifted, artifacts)
    assert served == fresh
    assert served.hd_oer.patterns == fresh.hd_oer.patterns == shifted.cell.hd_patterns
    assert first == _attack(acell, artifacts)
    if scenario == "oracle-key":
        assert served.sim_engine == "compiled-batch"
        assert served.diagnostics["key_search"]["hypotheses"] == served.hypotheses > 0
    else:
        assert served.sim_engine == "compiled-array"
    if defense != "none":
        assert served.diagnostics["defense"]["name"] == defense
        assert "effective_regular_recovery" in served.diagnostics["recovery"]


def _mutable_ids(value, found: set[int]) -> set[int]:
    """Ids of every mutable object reachable from *value*."""
    if isinstance(value, (dict, list, set)):
        found.add(id(value))
        items = value.values() if isinstance(value, dict) else value
        for item in items:
            _mutable_ids(item, found)
    elif isinstance(value, tuple):
        for item in value:
            _mutable_ids(item, found)
    elif is_dataclass(value) and not isinstance(value, type):
        if not value.__dataclass_params__.frozen:
            found.add(id(value))
        for f in fields(value):
            _mutable_ids(getattr(value, f.name), found)
    return found


@pytest.mark.parametrize("defense,scenario", [SERVED[-2], SERVED[-1]])
def test_outcomes_served_from_one_entry_share_no_mutable_state(
    artifacts, defense, scenario
):
    acell = CELLS[defense, scenario]
    enable_worker_runtime(64 << 20)
    one = _attack(_shifted(acell, "hd_seed"), artifacts)
    two = _attack(_shifted(_shifted(acell, "hd_seed"), "hd_seed"), artifacts)
    entry = _entry(acell)
    kept = _mutable_ids(entry.outcome, set())
    ids_one, ids_two = _mutable_ids(one, set()), _mutable_ids(two, set())
    assert ids_one.isdisjoint(ids_two)
    assert kept.isdisjoint(ids_one | ids_two)
    # Scribbling on a served outcome leaves the next one untouched.
    reference = _attack(acell, artifacts)
    for block in one.diagnostics.values():
        if isinstance(block, dict):
            block.clear()
    one.ccr.regular_ccr = one.pnr.pnr_percent = -1.0
    assert _attack(acell, artifacts) == reference


# ---------------------------------------------------------------------------
# The key


#: A changed value per :class:`CellSpec` field.
CELL_CHANGES = {
    "benchmark": "random:i10-o5-g80",
    "split_layer": 6,
    "key_bits": 8,
    "seed": BASE.seed + 1,
    "scale": 0.5,
    "hd_patterns": 640,
    "hd_seed": BASE.hd_seed + 1,
    "max_candidates": 61,
    "utilization": 0.6,
    "postprocess_seed": BASE.postprocess_seed + 1,
    "attack": ProximityAttackConfig(load_limit=4),
}


def test_recovery_key_moves_with_every_attack_field_but_the_budget():
    base = CELLS["none", "random"]
    assert set(CELL_CHANGES) == {f.name for f in fields(BASE)}
    variants = {
        f"cell.{name}": replace(base, cell=replace(BASE, **{name: value}))
        for name, value in CELL_CHANGES.items()
    }
    scenario = base.scenario
    variants["scenario.name"] = replace(base, scenario=parse_scenario("netflow").resolve())
    variants["scenario.seed"] = replace(base, scenario=replace(scenario, seed=scenario.seed + 1))
    variants["scenario.budget"] = replace(base, scenario=replace(scenario, budget=scenario.budget + 1))
    variants["scenario.postprocess"] = replace(base, scenario=replace(scenario, postprocess=False))
    variants["defense"] = CELLS["wire-lifting-lite", "random"]
    other = resolve_defense("routing-perturbation")
    variants["defense.spec"] = replace(variants["defense"], defense=other)

    base_attack = spec_key(attack_payload(base))
    base_recovery = spec_key(recovery_payload(base))
    seen = {base_recovery}
    for name, variant in variants.items():
        assert spec_key(attack_payload(variant)) != base_attack, name
        key = spec_key(recovery_payload(variant))
        if name in ("cell.hd_patterns", "cell.hd_seed"):
            assert key == base_recovery, name
        else:
            assert key not in seen, name
            seen.add(key)
    defended = variants["defense"]
    assert spec_key(recovery_payload(variants["defense.spec"])) != spec_key(
        recovery_payload(defended)
    )


def test_recovery_payload_is_the_attack_payload_less_the_budget():
    acell = CELLS["wire-lifting-lite", "netflow"]
    attack = attack_payload(acell)
    recovery = recovery_payload(acell)
    assert recovery.pop("stage") == "recovery"
    assert attack.pop("stage") == "attack"
    del attack["hd_patterns"], attack["hd_seed"]
    assert recovery == attack


# ---------------------------------------------------------------------------
# The entry's bytes


def _classes(data: bytes) -> set[str]:
    """Names of the classes a pickle rebuilds."""
    found: set[str] = set()

    class Recorder(pickle.Unpickler):
        def find_class(self, module, name):
            found.add(name)
            return super().find_class(module, name)

    Recorder(io.BytesIO(data)).load()
    return found


@pytest.mark.parametrize("defense,scenario", [SERVED[0], SERVED[-1]])
def test_entry_pickles_without_the_view_the_lock_or_the_program(
    artifacts, defense, scenario
):
    acell = CELLS[defense, scenario]
    runtime = enable_worker_runtime(64 << 20)
    _attack(acell, artifacts)
    entry = _entry(acell)
    assert entry.machine is not None
    assert entry.machine._program is not None  # built by the HD/OER sweep
    data = pickle.dumps(entry, pickle.HIGHEST_PROTOCOL)
    [(stage, _)] = [k for k in runtime.keys() if k[0] == "recovery"]
    assert runtime._entries[stage, _][1] == len(data)  # sized at insert
    assert _classes(data).isdisjoint(
        {"FeolView", "LockedCircuit", "PhysicalLayout", "Circuit", "Gate",
         "CompiledCircuit"}
    )
    # Nothing beyond the machine's own arrays and the plain outcome.
    machine = entry.machine
    own = sum(
        len(pickle.dumps(part, pickle.HIGHEST_PROTOCOL))
        for part in (entry.outcome, machine.table, machine.level, machine.types)
    )
    assert len(data) <= own + 1024
    design, layout, defended = artifacts
    view = defended[defense].view if defense != "none" else layout.feol_view(4)
    assert len(data) < len(pickle.dumps(view, pickle.HIGHEST_PROTOCOL))


# ---------------------------------------------------------------------------
# The serial path


def test_serial_path_runs_both_halves_on_every_call(artifacts, monkeypatch):
    enable_worker_runtime(0)
    acell = CELLS["none", "netflow"]
    calls: dict[str, list] = {"scenario": [], "hd_oer": [], "ccr": [], "engine": []}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls[name].append((args, kwargs))
            return fn(*args, **kwargs)

        return wrapped

    engine = get_engine(acell.scenario.engine)
    monkeypatch.setattr(stages, "run_scenario", spy("scenario", stages.run_scenario))
    monkeypatch.setattr(evaluate, "compute_hd_oer", spy("hd_oer", evaluate.compute_hd_oer))
    monkeypatch.setattr(evaluate, "compute_ccr", spy("ccr", evaluate.compute_ccr))
    monkeypatch.setattr(engine, "run", spy("engine", engine.run))
    cells = [acell, _shifted(acell, "hd_seed"), acell]
    for cell in cells:
        _attack(cell, artifacts)
    assert {name: len(made) for name, made in calls.items()} == {
        "scenario": 3,
        "hd_oer": 3,
        "ccr": 6,
        "engine": 3,
    }
    design = artifacts[0]
    for cell, (args, kwargs) in zip(cells, calls["hd_oer"]):
        assert args[0] is design.core
        assert kwargs == {"patterns": cell.cell.hd_patterns, "seed": cell.cell.hd_seed}
    for cell, (args, kwargs) in zip(cells, calls["scenario"]):
        assert kwargs["hd_patterns"] == cell.cell.hd_patterns
        assert kwargs["hd_seed"] == cell.cell.hd_seed
        assert kwargs["recovery_payload"] == recovery_payload(cell)
