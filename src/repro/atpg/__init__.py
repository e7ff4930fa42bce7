"""ATPG substrate: stuck-at faults, PODEM, fault simulation, failing sets."""

from repro.atpg.cubes import Cube, cover_care_bits, cover_minterms, exact_cover
from repro.atpg.fault_sim import fault_coverage
from repro.atpg.faults import StuckAtFault, all_faults, collapse_faults, internal_faults
from repro.atpg.patterns import (
    FailingPatterns,
    FailingSetTooLarge,
    enumerate_failing_patterns,
    verify_cover_exactness,
)
from repro.atpg.podem import PodemEngine, PodemResult, confirm_test_cubes

__all__ = [
    "Cube",
    "FailingPatterns",
    "FailingSetTooLarge",
    "PodemEngine",
    "PodemResult",
    "StuckAtFault",
    "all_faults",
    "collapse_faults",
    "confirm_test_cubes",
    "cover_care_bits",
    "cover_minterms",
    "enumerate_failing_patterns",
    "exact_cover",
    "fault_coverage",
    "internal_faults",
    "verify_cover_exactness",
]
