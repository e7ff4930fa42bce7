"""The paper's contribution: the SplitLock flow and its security layer."""

from repro.core.config import LayoutConfig, SplitLockConfig
from repro.core.flow import FlowResult, SplitLockFlow
from repro.core.security import (
    SecurityAssessment,
    assess,
    brute_force_work_factor,
    constrained_keyspace_size,
    expected_logical_ccr_random_guess,
    is_negligible,
    keyspace_size,
    security_bits,
    theorem1_bound,
)

__all__ = [
    "FlowResult",
    "LayoutConfig",
    "SecurityAssessment",
    "SplitLockConfig",
    "SplitLockFlow",
    "assess",
    "brute_force_work_factor",
    "constrained_keyspace_size",
    "expected_logical_ccr_random_guess",
    "is_negligible",
    "keyspace_size",
    "security_bits",
    "theorem1_bound",
]
