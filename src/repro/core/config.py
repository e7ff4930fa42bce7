"""Configuration for the end-to-end SplitLock flow."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.locking.atpg_lock import AtpgLockConfig


@dataclass(frozen=True)
class LayoutConfig:
    """Physical-design knobs (Fig. 3, right column)."""

    utilization: float = 0.70
    seed: int = 2019


@dataclass(frozen=True)
class SplitLockConfig:
    """Everything one run of the paper's flow needs.

    ``split_layers`` lists the splits to produce; the paper evaluates
    M4 (lift to M5) and M6 (lift to M7).  ``key_bits`` defaults to the
    paper's 128; harnesses that measure *relative area* on scaled-down
    benchmarks pass a prorated budget instead (see
    :func:`repro.runner.profiles.prorated_key_bits`).
    """

    lock: AtpgLockConfig = field(default_factory=AtpgLockConfig)
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    split_layers: tuple[int, ...] = (4, 6)

    @staticmethod
    def with_key_bits(key_bits: int, seed: int = 2019) -> "SplitLockConfig":
        """Convenience constructor overriding only the key length."""
        return SplitLockConfig(
            lock=AtpgLockConfig(key_bits=key_bits, seed=seed),
            layout=LayoutConfig(seed=seed),
        )
