"""Logic locking: ATPG-based fault-injection locking and random locking."""

from repro.locking.atpg_lock import (
    AtpgLockConfig,
    AtpgLockReport,
    FaultPlan,
    atpg_lock,
)
from repro.locking.cost_model import FaultCost, restore_area_estimate
from repro.locking.key import KeyBit, LockedCircuit
from repro.locking.partition import (
    FaultModule,
    affected_sinks,
    extract_sink_modules,
    grow_cut,
)
from repro.locking.random_lock import insert_random_key_gates, random_lock
from repro.locking.restore import RestoreResult, insert_restore

__all__ = [
    "AtpgLockConfig",
    "AtpgLockReport",
    "FaultCost",
    "FaultModule",
    "FaultPlan",
    "KeyBit",
    "LockedCircuit",
    "RestoreResult",
    "affected_sinks",
    "atpg_lock",
    "extract_sink_modules",
    "grow_cut",
    "insert_random_key_gates",
    "insert_restore",
    "random_lock",
    "restore_area_estimate",
]
