"""Experiment profiles: the paper's budgets and the scaled default.

One place resolves the ``REPRO_FULL`` / ``REPRO_SCALE`` environment
knobs into concrete budgets and holds the spec of every paper artefact
(Tables I/II, Table III, Fig. 5), shared by the benchmark harnesses and
the ``python -m repro.runner`` CLI so both sides of the cache agree on
the spec (and therefore on the artifact keys).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adversary.scenario import default_scenario_names
from repro.benchgen import TABLE_I_BENCHMARKS, TABLE_III_BENCHMARKS, profile
from repro.defense import default_defense_names
from repro.runner.spec import (
    AttackCampaignSpec,
    AttackCellSpec,
    CampaignSpec,
    CellSpec,
    DEFAULT_SEED,
)
from repro.utils.env import env_flag, env_scale

#: Table III's prior-art defenses and the row label (citation) of each.
TABLE_III_DEFENSES = {
    "routing-perturbation": "[22]",
    "wire-lifting": "[12]",
    "beol-restore": "[13]",
}

#: The proposed lock's key size on the ISCAS-85 designs of Table III:
#: the paper's 128 bits prorated for the much smaller circuits.
TABLE_III_KEY_BITS = 32


@dataclass(frozen=True)
class ExperimentProfile:
    """Budget set for one fidelity level."""

    full: bool
    scale: float | None
    seed: int = DEFAULT_SEED
    key_bits: int = 128

    @property
    def hd_patterns(self) -> int:
        """Simulation budget for HD/OER (paper: 1,000,000 runs)."""
        return 1_000_000 if self.full else 16_384

    @property
    def ideal_runs(self) -> int:
        """Random-guess runs for the ideal attack (paper: 1,000,000)."""
        return 1_000_000 if self.full else 2_000

    @property
    def max_candidates(self) -> int:
        return 500 if self.full else 250

    def table_campaign(self) -> CampaignSpec:
        """The Tables I/II grid: six ITC'99 benchmarks at M4 and M6."""
        return CampaignSpec(
            benchmarks=TABLE_I_BENCHMARKS,
            split_layers=(4, 6),
            key_bits=(self.key_bits,),
            seed=self.seed,
            scale=self.scale,
            hd_patterns=self.hd_patterns,
            max_candidates=self.max_candidates,
        )

    @property
    def table3_benchmarks(self) -> tuple[str, ...]:
        """Table III's designs: four ISCAS-85 circuits, all seven full."""
        return (
            TABLE_III_BENCHMARKS if self.full else ("c432", "c880", "c1355", "c1908")
        )

    @property
    def table3_hd_patterns(self) -> int:
        """Table III's HD/OER budget (paper: 1,000,000 runs)."""
        return 1_000_000 if self.full else 8_192

    def table3_cells(self) -> tuple[AttackCellSpec, ...]:
        """Table III as ordinary attack x defense cells, four per design.

        Every cell mounts the proximity attack at M4: the prior art
        protects the unlocked design (``key_bits=0``), the proposed row
        is the :data:`TABLE_III_KEY_BITS` lock with no defense.  ISCAS-85
        layouts clamp their regular nets to M2/M3, so at M4 only what
        the lock or the defense hides is broken.
        """
        common = dict(
            benchmarks=self.table3_benchmarks,
            scenarios=("proximity",),
            split_layers=(4,),
            seed=self.seed,
            hd_patterns=self.table3_hd_patterns,
            max_candidates=self.max_candidates,
        )
        return (
            AttackCampaignSpec(
                defenses=tuple(TABLE_III_DEFENSES), key_bits=(0,), **common
            ).cells()
            + AttackCampaignSpec(key_bits=(TABLE_III_KEY_BITS,), **common).cells()
        )

    def fig5_cells(self) -> list[CellSpec]:
        """Fig. 5's cost cells: the Tables I/II designs, key prorated."""
        return [
            CellSpec(
                benchmark=name,
                key_bits=prorated_key_bits(name, self.scale),
                seed=self.seed,
                scale=self.scale,
                max_candidates=self.max_candidates,
            )
            for name in TABLE_I_BENCHMARKS
        ]


def prorated_key_bits(
    name: str, scale: float | None = None, paper_key_bits: int = 128
) -> int:
    """The paper's key:gate ratio carried to a scaled-down benchmark.

    Fig. 5 reports *relative* cost, which is meaningless if a 128-bit key
    is 10x oversized for the scaled design; prorating preserves the ratio
    (128 bits on 10k-32k gates, ~1.3%).
    """
    bench = profile(name)
    factor = scale if scale is not None else bench.default_scale
    return max(8, round(paper_key_bits * factor))


def current_profile() -> ExperimentProfile:
    """The profile selected by the environment (``REPRO_FULL``/``REPRO_SCALE``)."""
    return ExperimentProfile(full=env_flag("REPRO_FULL"), scale=env_scale())


#: A deliberately tiny single-cell grid for CI smoke runs: a scaled-down
#: b14 with a small key and short attack/simulation budgets.  Exercises
#: every stage (generate, lock, layout, attack, metrics) in well under a
#: minute on one worker.
def smoke_campaign() -> CampaignSpec:
    return CampaignSpec(
        benchmarks=("b14",),
        split_layers=(4,),
        key_bits=(16,),
        seed=DEFAULT_SEED,
        scale=0.03,
        hd_patterns=2_048,
        max_candidates=80,
    )


#: The ``attacks --smoke`` grid: two small benchmarks (a scaled ITC'99
#: profile and a random-logic descriptor the scale knob cannot shrink)
#: crossed with the default scenario set plus the oracle-armed key
#: search (so the batched ``simulate_batch_array`` hypothesis path runs
#: in CI) — every engine exercised cold in about a minute, and the new
#: engines' CCR checked against the random floor per benchmark.
def attack_smoke_campaign() -> AttackCampaignSpec:
    scenarios = default_scenario_names()
    if "oracle-key" not in scenarios:
        scenarios = scenarios + ("oracle-key",)
    return AttackCampaignSpec(
        benchmarks=("b14", "random:i14-o8-g200"),
        scenarios=scenarios,
        split_layers=(4,),
        key_bits=(16,),
        seed=DEFAULT_SEED,
        scale=0.03,
        hd_patterns=2_048,
        max_candidates=80,
    )


#: The ``attacks --matrix-smoke`` grid: one scaled b14 layout crossed
#: with every registered defense scheme (plus the undefended baseline)
#: and the verdict scenarios — the smallest grid on which
#: :func:`repro.defense.matrix_verdict` can judge that each defense
#: strictly lowers the attacker's effective regular recovery and that
#: the lifting family holds Table III's CCR ~ 0 on protected nets.
def defense_smoke_campaign() -> AttackCampaignSpec:
    return AttackCampaignSpec(
        benchmarks=("b14",),
        scenarios=("netflow", "learned", "random"),
        defenses=default_defense_names(),
        split_layers=(4,),
        key_bits=(16,),
        seed=DEFAULT_SEED,
        scale=0.03,
        hd_patterns=2_048,
        max_candidates=80,
    )
