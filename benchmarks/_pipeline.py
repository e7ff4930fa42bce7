"""Shared experiment setup for the benchmark harnesses.

A thin consumer of the campaign runner (:mod:`repro.runner`): the paper
tables' harnesses run the runner's own campaigns and print its
renderers (:mod:`repro.runner.paper_data`), and every heavy artefact —
locked netlists, split layouts, attack runs — comes through the
content-keyed **on-disk** artifact cache, so the grid is computed once
and shared across harnesses, processes and reruns.  Table I and Table
II report different metrics of the *same* attack runs, exactly as in
the paper; regenerate the grid with ``python -m repro.runner table1``.

Environment knobs (parsed in :mod:`repro.utils.env`):

* ``REPRO_FULL=1``    — full-fidelity run: 1M simulation patterns for
  HD/OER and the ideal-attack campaign (the paper's budget).  Hours of
  runtime; default is a scaled profile that preserves every reported
  trend in minutes.
* ``REPRO_SCALE``     — overrides the benchmark scale factor (must be
  > 0; empty/unset means each profile's default).
* ``REPRO_CACHE_DIR`` — artifact-cache directory override.
* ``REPRO_NO_CACHE=1``— disable the on-disk cache (compute in-process).
* ``REPRO_WORKERS``   — worker processes of the table campaigns.
"""

from __future__ import annotations

from functools import cache

from repro.locking.atpg_lock import AtpgLockConfig
from repro.runner import CampaignResult, CellSpec, current_profile, run_campaign
from repro.utils.artifact_cache import ArtifactCache
from repro.utils.env import env_flag

PROFILE = current_profile()

FULL = PROFILE.full
SCALE = PROFILE.scale

#: Simulation budget for HD/OER (paper: 1,000,000 runs).
HD_PATTERNS = PROFILE.hd_patterns

#: Random-guess runs for the ideal-attack experiment (paper: 1,000,000).
IDEAL_RUNS = PROFILE.ideal_runs

#: Key bits (the paper's setting).
KEY_BITS = PROFILE.key_bits

SEED = PROFILE.seed

__all__ = [
    "FULL",
    "SCALE",
    "HD_PATTERNS",
    "IDEAL_RUNS",
    "KEY_BITS",
    "PROFILE",
    "SEED",
    "cell_spec",
    "disk_cache",
    "lock_config",
    "table_campaign",
]

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
        max_candidates=PROFILE.max_candidates,
    )


def lock_config(key_bits: int = KEY_BITS) -> AtpgLockConfig:
    return cell_spec("b14", key_bits=key_bits).lock_config()


@cache
def table_campaign() -> CampaignResult:
    """The Tables I/II campaign, run once per process by the runner."""
    return run_campaign(PROFILE.table_campaign(), use_cache=_DISK is not None)
