"""Shared experiment pipeline for the benchmark harnesses.

A thin consumer of the campaign runner (:mod:`repro.runner`): every
heavy artefact — locked netlists, split layouts, attack runs — comes
from the runner's pure stages through the content-keyed **on-disk**
artifact cache, so the grid is computed once and shared across
harnesses, processes and reruns.  Table I and Table II report different
metrics of the *same* attack runs, exactly as in the paper; regenerate
the grid in parallel with ``python -m repro.runner table1``.

Environment knobs (parsed in :mod:`repro.utils.env`):

* ``REPRO_FULL=1``    — full-fidelity run: 1M simulation patterns for
  HD/OER and the ideal-attack campaign (the paper's budget).  Hours of
  runtime; default is a scaled profile that preserves every reported
  trend in minutes.
* ``REPRO_SCALE``     — overrides the benchmark scale factor (must be
  > 0; empty/unset means each profile's default).
* ``REPRO_CACHE_DIR`` — artifact-cache directory override.
* ``REPRO_NO_CACHE=1``— disable the on-disk cache (compute in-process).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.adversary.evaluate import AttackOutcome
from repro.benchgen import TABLE_I_BENCHMARKS
from repro.locking.atpg_lock import AtpgLockConfig
from repro.runner import (
    AttackCampaignSpec,
    CellSpec,
    cell_attack,
    cell_layout,
    current_profile,
    locked_design,
    proximity_cell,
    run_attack_campaign,
    unprotected_layout,
)
from repro.utils.artifact_cache import ArtifactCache
from repro.utils.env import env_flag

_PROFILE = current_profile()

FULL = _PROFILE.full
SCALE = _PROFILE.scale

#: Simulation budget for HD/OER (paper: 1,000,000 runs).
HD_PATTERNS = _PROFILE.hd_patterns

#: Random-guess runs for the ideal-attack experiment (paper: 1,000,000).
IDEAL_RUNS = _PROFILE.ideal_runs

#: Key bits (the paper's setting).
KEY_BITS = _PROFILE.key_bits

SEED = _PROFILE.seed

__all__ = [
    "FULL",
    "SCALE",
    "HD_PATTERNS",
    "IDEAL_RUNS",
    "KEY_BITS",
    "SEED",
    "BenchArtifacts",
    "cell_spec",
    "disk_cache",
    "lock_config",
    "get_artifacts",
    "get_table3_grid",
    "get_unprotected_layout",
    "table_benchmarks",
]


@dataclass
class BenchArtifacts:
    """In-process view of one benchmark's cached artefacts."""

    name: str
    core: object
    locked: object
    lock_report: object
    layouts: dict[int, object] = field(default_factory=dict)
    runs: dict[int, AttackOutcome] = field(default_factory=dict)


#: Per-process memo on top of the on-disk artifact cache.
_CACHE: dict[str, BenchArtifacts] = {}

_DISK = None if env_flag("REPRO_NO_CACHE") else ArtifactCache()


def disk_cache() -> ArtifactCache | None:
    """The shared on-disk artifact cache (``None`` under REPRO_NO_CACHE)."""
    return _DISK


def cell_spec(
    name: str, split_layer: int = 4, key_bits: int = KEY_BITS
) -> CellSpec:
    """The runner cell for one (benchmark, split) under the env profile."""
    return CellSpec(
        benchmark=name,
        split_layer=split_layer,
        key_bits=key_bits,
        seed=SEED,
        scale=SCALE,
        hd_patterns=HD_PATTERNS,
        max_candidates=_PROFILE.max_candidates,
    )


def lock_config(key_bits: int = KEY_BITS) -> AtpgLockConfig:
    return cell_spec("b14", key_bits=key_bits).lock_config()


def get_artifacts(name: str) -> BenchArtifacts:
    """Locked design + split layouts + attack runs for one benchmark."""
    if name in _CACHE:
        return _CACHE[name]
    design = locked_design(cell_spec(name), _DISK)
    artifacts = BenchArtifacts(name, design.core, design.locked, design.report)
    for split in (4, 6):
        cell = cell_spec(name, split_layer=split)
        layout = cell_layout(cell, _DISK, design=design)
        artifacts.layouts[split] = layout
        artifacts.runs[split] = cell_attack(
            proximity_cell(cell), _DISK, design=design, layout=layout
        )
    _CACHE[name] = artifacts
    return artifacts


def table_benchmarks() -> tuple[str, ...]:
    """The six ITC'99 benchmarks of Tables I/II."""
    return TABLE_I_BENCHMARKS


def get_unprotected_layout(name: str):
    """Reference layout of the original core (for Fig. 5)."""
    return unprotected_layout(cell_spec(name), _DISK)


#: Table III's prior-art defenses and the row label (citation) of each.
TABLE_III_DEFENSES = {
    "routing-perturbation": "[22]",
    "wire-lifting": "[12]",
    "beol-restore": "[13]",
}


def get_table3_grid(
    names: tuple[str, ...], key_bits: int, hd_patterns: int
) -> dict[str, dict[str, tuple[float, float, float, float]]]:
    """Table III as ordinary attack x defense cells, four per benchmark.

    Every cell mounts the proximity attack at M4: the prior art protects
    the unlocked design (``key_bits=0``), the proposed row is the
    *key_bits* lock with no defense.  ISCAS-85 layouts clamp their
    regular nets to M2/M3, so at M4 only what the lock or the defense
    hides is broken.  Returns ``{benchmark: {scheme: (PNR, CCR, HD,
    OER)}}``, where CCR is the physical CCR over each scheme's protected
    nets: the nets a defense hid, or the proposed lock's key-nets.
    """
    common = dict(
        benchmarks=names,
        scenarios=("proximity",),
        split_layers=(4,),
        seed=SEED,
        hd_patterns=hd_patterns,
    )
    cells = (
        AttackCampaignSpec(
            defenses=tuple(TABLE_III_DEFENSES), key_bits=(0,), **common
        ).cells()
        + AttackCampaignSpec(key_bits=(key_bits,), **common).cells()
    )
    result = run_attack_campaign(cells, workers=1, use_cache=_DISK is not None)
    grid: dict[str, dict[str, tuple[float, float, float, float]]] = {}
    for cell_result in result.cells:
        acell, outcome = cell_result.cell, cell_result.outcome
        if acell.defense is None:
            scheme, ccr = "proposed", outcome.ccr.key_physical_ccr
        else:
            scheme = TABLE_III_DEFENSES[acell.defense.name]
            ccr = outcome.diagnostics["defense"]["protected_ccr"]
        grid.setdefault(acell.cell.benchmark, {})[scheme] = (
            outcome.pnr.pnr_percent,
            ccr,
            outcome.hd_oer.hd_percent,
            outcome.hd_oer.oer_percent,
        )
    return grid
