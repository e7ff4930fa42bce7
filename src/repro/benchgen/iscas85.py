"""ISCAS-85 benchmark suite: exact c17 plus profile-matched generators.

``c17`` is small enough to reproduce exactly (it is also the worked example
in the paper's Fig. 4).  The larger ISCAS-85 netlists are generated to match
the published interface and gate counts; see :mod:`repro.benchgen.profiles`
for the substitution rationale.
"""

from __future__ import annotations

from repro.benchgen.profiles import ISCAS85_PROFILES, BenchmarkProfile
from repro.benchgen.random_logic import GeneratorConfig, generate_random_circuit
from repro.netlist.bench_io import loads
from repro.netlist.circuit import Circuit

#: The genuine ISCAS-85 c17 netlist (six NAND2 gates).
C17_BENCH = """\
# c17 (exact ISCAS-85 netlist)
INPUT(N1)
INPUT(N2)
INPUT(N3)
INPUT(N6)
INPUT(N7)
OUTPUT(N22)
OUTPUT(N23)
N10 = NAND(N1, N3)
N11 = NAND(N3, N6)
N16 = NAND(N2, N11)
N19 = NAND(N11, N7)
N22 = NAND(N10, N16)
N23 = NAND(N16, N19)
"""


def c17() -> Circuit:
    """The exact ISCAS-85 c17 circuit."""
    return loads(C17_BENCH, name="c17")


def load_iscas85(name: str, seed: int = 2019, scale: float | None = None) -> Circuit:
    """Build an ISCAS-85 benchmark (exact for c17, profile-matched else).

    *seed* controls the synthetic construction; the default matches the
    seeds used by the experiment harnesses so results are reproducible.
    """
    if name == "c17":
        return c17()
    try:
        prof = ISCAS85_PROFILES[name]
    except KeyError as exc:
        raise KeyError(f"unknown ISCAS-85 benchmark: {name!r}") from exc
    return _from_profile(prof, seed, scale)


def _from_profile(prof: BenchmarkProfile, seed: int, scale: float | None) -> Circuit:
    config = GeneratorConfig(
        num_inputs=prof.num_inputs,
        num_outputs=prof.num_outputs,
        num_gates=prof.scaled_gates(scale),
        num_dffs=0,
    )
    return generate_random_circuit(config, seed=seed, name=prof.name)


def iscas85_suite(seed: int = 2019, scale: float | None = None) -> dict[str, Circuit]:
    """All ISCAS-85 benchmarks used in the paper's Table III."""
    return {
        name: load_iscas85(name, seed=seed, scale=scale)
        for name in ISCAS85_PROFILES
        if name != "c17"
    }
