"""Benchmark profiles: interface and size data for ISCAS-85 and ITC'99.

The original benchmark netlists are not redistributable in this offline
environment, so the suite is regenerated as *profile-matched* synthetic
circuits: identical primary-input/output counts, flip-flop counts and gate
counts scaled by a common factor that preserves the relative size ordering
(b17 largest, timing out first in the paper's Table I).  Every generator is
seeded and deterministic.  The substitution preserves what the paper
measures because its metrics read the locked netlist's structure and its
split layout (interface widths, gate counts, the share of key-nets among
broken nets), not the exact Boolean function of the original circuit.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BenchmarkProfile:
    """Size profile of one benchmark circuit.

    ``gates`` is the published gate count of the real benchmark;
    ``default_scale`` maps it to a size tractable for the pure-Python
    place-and-route + attack pipeline while keeping relative ordering.
    """

    name: str
    suite: str
    num_inputs: int
    num_outputs: int
    num_dffs: int
    gates: int
    default_scale: float

    def scaled_gates(self, scale: float | None = None) -> int:
        factor = self.default_scale if scale is None else scale
        return max(8, round(self.gates * factor))

    def scaled_dffs(self, scale: float | None = None) -> int:
        factor = self.default_scale if scale is None else scale
        if self.num_dffs == 0:
            return 0
        return max(1, round(self.num_dffs * factor))


#: ISCAS-85 combinational benchmarks (published sizes).
ISCAS85_PROFILES = {
    "c17": BenchmarkProfile("c17", "iscas85", 5, 2, 0, 6, 1.0),
    "c432": BenchmarkProfile("c432", "iscas85", 36, 7, 0, 160, 1.0),
    "c880": BenchmarkProfile("c880", "iscas85", 60, 26, 0, 383, 1.0),
    "c1355": BenchmarkProfile("c1355", "iscas85", 41, 32, 0, 546, 1.0),
    "c1908": BenchmarkProfile("c1908", "iscas85", 33, 25, 0, 880, 1.0),
    "c3540": BenchmarkProfile("c3540", "iscas85", 50, 22, 0, 1669, 1.0),
    "c5315": BenchmarkProfile("c5315", "iscas85", 178, 123, 0, 2307, 1.0),
    "c7552": BenchmarkProfile("c7552", "iscas85", 207, 108, 0, 3512, 1.0),
}

#: ITC'99 sequential benchmarks used in Tables I/II (published sizes).
#: The default scale of 0.08 keeps the full Table-I pipeline to minutes in
#: pure Python while preserving the b14 < b15 < b20 = b21 < b22 < b17 order.
ITC99_PROFILES = {
    "b14": BenchmarkProfile("b14", "itc99", 32, 54, 245, 10098, 0.08),
    "b15": BenchmarkProfile("b15", "itc99", 36, 70, 449, 8922, 0.08),
    "b17": BenchmarkProfile("b17", "itc99", 37, 97, 1415, 32326, 0.08),
    "b20": BenchmarkProfile("b20", "itc99", 32, 22, 490, 20226, 0.08),
    "b21": BenchmarkProfile("b21", "itc99", 32, 22, 490, 20571, 0.08),
    "b22": BenchmarkProfile("b22", "itc99", 32, 22, 735, 29951, 0.08),
}

#: Benchmarks evaluated in the paper's Tables I and II.
TABLE_I_BENCHMARKS = ("b14", "b15", "b17", "b20", "b21", "b22")

#: Benchmarks evaluated in the paper's Table III.
TABLE_III_BENCHMARKS = (
    "c432",
    "c880",
    "c1355",
    "c1908",
    "c3540",
    "c5315",
    "c7552",
)


def profile(name: str) -> BenchmarkProfile:
    """Look up a profile in either suite by benchmark name."""
    if name in ISCAS85_PROFILES:
        return ISCAS85_PROFILES[name]
    if name in ITC99_PROFILES:
        return ITC99_PROFILES[name]
    raise KeyError(f"unknown benchmark: {name!r}")
