"""Declarative campaign specifications.

A :class:`CampaignSpec` names a grid of experiments — benchmarks crossed
with split layers and key sizes under shared seeds and budgets — and
expands it into independent :class:`CellSpec` cells, each executed as
the ``proximity`` attack cell :func:`proximity_cell` builds.  Each cell
is a complete, self-contained description of one (benchmark, split
layer, key size) experiment: a frozen dataclass of plain scalars that

* pickles across :class:`~repro.runner.engine.CampaignExecutor`
  workers,
* canonicalises into the content key of the on-disk artifact cache, and
* round-trips through JSON for the ``python -m repro.runner`` CLI.

Benchmarks are referenced by profile name (any ISCAS-85 or ITC'99 name
from :mod:`repro.benchgen.profiles`) or by a ``random:`` descriptor such
as ``random:i16-o8-g240`` / ``random:i6-o4-g80-d5`` that instantiates
:class:`repro.benchgen.GeneratorConfig` — so campaigns can sweep
workloads far beyond the paper's six circuits.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Iterable, Mapping

from repro.adversary.scenario import Scenario, parse_scenario
from repro.attacks.proximity import ProximityAttackConfig
from repro.defense.spec import DefenseSpec, resolve_defense
from repro.benchgen import GeneratorConfig, profile
from repro.locking.atpg_lock import AtpgLockConfig
from repro.phys.stackup import STACK

#: Seeds shared with the seed harnesses so runner results are
#: bit-identical to the historical serial pipeline.
DEFAULT_SEED = 2019
DEFAULT_HD_SEED = 5
DEFAULT_POSTPROCESS_SEED = 13

_RANDOM_RE = re.compile(
    r"^random:i(?P<inputs>\d+)-o(?P<outputs>\d+)-g(?P<gates>\d+)"
    r"(?:-d(?P<dffs>\d+))?$"
)


def parse_benchmark(name: str) -> GeneratorConfig | None:
    """Validate a benchmark reference.

    Returns the :class:`GeneratorConfig` for ``random:`` descriptors,
    ``None`` for known profile names; raises ``KeyError``/``ValueError``
    for anything else.
    """
    if name.startswith("random:"):
        match = _RANDOM_RE.match(name)
        if match is None:
            raise ValueError(
                f"bad random benchmark {name!r}; expected "
                "random:i<inputs>-o<outputs>-g<gates>[-d<dffs>]"
            )
        return GeneratorConfig(
            num_inputs=int(match["inputs"]),
            num_outputs=int(match["outputs"]),
            num_gates=int(match["gates"]),
            num_dffs=int(match["dffs"] or 0),
        )
    profile(name)  # raises KeyError for unknown names
    return None


def _check_int(
    what: str, value: Any, low: int | None = None, high: int | None = None
) -> None:
    """Reject a non-integer (booleans included) or out-of-range *value*."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    too_low = low is not None and value < low
    if too_low or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{what} must be {bounds}, got {value}")


def _check_real(what: str, value: Any, high: float | None = None) -> None:
    """Reject anything but a finite number in ``(0, high]``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or value <= 0
        or (high is not None and value > high)
    ):
        bounds = "> 0" if high is None else f"in (0, {high}]"
        raise ValueError(f"{what} must be a number {bounds}, got {value!r}")


def _check_names(what: str, names: Iterable[Any]) -> None:
    for name in names:
        if not isinstance(name, str):
            raise ValueError(f"{what} must be names, got {name!r}")


def _check_grid(spec: "CampaignSpec | AttackCampaignSpec") -> None:
    """Field types and ranges shared by both campaign kinds.

    Runs when a spec is built, so a malformed submission fails with
    ``ValueError`` at parse time (a 400 from the service) instead of
    expanding into cells that fail inside pool workers.  Unknown
    benchmark names still raise ``KeyError`` from :func:`profile`.
    """
    _check_names("benchmarks", spec.benchmarks)
    for name in spec.benchmarks:
        parse_benchmark(name)
    for layer in spec.split_layers:
        # a split needs a layer above it to lift the key-nets to
        _check_int("split layers", layer, 1, STACK.top - 1)
    for bits in spec.key_bits:
        # 0 is valid: the unlocked design
        _check_int("key sizes", bits, 0)
    for name in ("seed", "hd_seed", "postprocess_seed"):
        _check_int(name, getattr(spec, name))
    _check_int("hd_patterns", spec.hd_patterns, 1)
    _check_int("max_candidates", spec.max_candidates, 1)
    if spec.scale is not None:
        _check_real("scale", spec.scale)
    _check_real("utilization", spec.utilization, 1.0)


@dataclass(frozen=True)
class CellSpec:
    """One experiment cell: everything a worker needs, nothing shared."""

    benchmark: str
    split_layer: int = 4
    key_bits: int = 128
    seed: int = DEFAULT_SEED
    scale: float | None = None
    hd_patterns: int = 16_384
    hd_seed: int = DEFAULT_HD_SEED
    max_candidates: int = 250
    utilization: float = 0.70
    postprocess_seed: int = DEFAULT_POSTPROCESS_SEED
    attack: ProximityAttackConfig = field(default_factory=ProximityAttackConfig)

    @property
    def cell_id(self) -> str:
        """Human-readable identity, e.g. ``b14/M4/k128``."""
        return f"{self.benchmark}/M{self.split_layer}/k{self.key_bits}"

    @property
    def result_key(self) -> tuple[str, int, int, int, int, int]:
        """Grid identity for result dictionaries: axes *and* seeds.

        Two cells may share (benchmark, split_layer, key_bits) yet
        differ in a seed; result maps keyed without the seeds would
        silently collapse them, so every seed rides along.
        """
        return (
            self.benchmark,
            self.split_layer,
            self.key_bits,
            self.seed,
            self.hd_seed,
            self.postprocess_seed,
        )

    def lock_config(self) -> AtpgLockConfig:
        """The locking knobs this cell implies (LEC left to the tests)."""
        return AtpgLockConfig(
            key_bits=self.key_bits,
            seed=self.seed,
            run_lec=False,
            max_candidates=self.max_candidates,
        )

    def to_payload(self) -> dict[str, Any]:
        """Canonical dict for cache keys and JSON round-trips."""
        return asdict(self)

    @staticmethod
    def from_payload(payload: dict[str, Any]) -> "CellSpec":
        data = dict(payload)
        attack = data.pop("attack", None)
        cell = CellSpec(**data)
        if attack is not None:
            cell = replace(cell, attack=ProximityAttackConfig(**attack))
        return cell


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative grid: benchmarks x split layers x key sizes."""

    benchmarks: tuple[str, ...]
    split_layers: tuple[int, ...] = (4, 6)
    key_bits: tuple[int, ...] = (128,)
    seed: int = DEFAULT_SEED
    scale: float | None = None
    hd_patterns: int = 16_384
    hd_seed: int = DEFAULT_HD_SEED
    max_candidates: int = 250
    utilization: float = 0.70
    postprocess_seed: int = DEFAULT_POSTPROCESS_SEED
    attack: ProximityAttackConfig = field(default_factory=ProximityAttackConfig)

    def __post_init__(self) -> None:
        if not self.benchmarks:
            raise ValueError("campaign needs at least one benchmark")
        if not self.split_layers or not self.key_bits:
            raise ValueError("campaign needs split layers and key sizes")
        _check_grid(self)
        if not isinstance(self.attack, ProximityAttackConfig):
            raise ValueError(f"attack must be a config, got {self.attack!r}")

    def cells(self) -> tuple[CellSpec, ...]:
        """Expand the grid, slowest-varying benchmark first.

        The order is deterministic so serial and parallel campaigns agree
        on cell identity; execution order does not affect results (cells
        share nothing but the read-only cache).
        """
        return tuple(
            CellSpec(
                benchmark=name,
                split_layer=split,
                key_bits=bits,
                seed=self.seed,
                scale=self.scale,
                hd_patterns=self.hd_patterns,
                hd_seed=self.hd_seed,
                max_candidates=self.max_candidates,
                utilization=self.utilization,
                postprocess_seed=self.postprocess_seed,
                attack=self.attack,
            )
            for name in self.benchmarks
            for split in self.split_layers
            for bits in self.key_bits
        )

    def to_payload(self) -> dict[str, Any]:
        return asdict(self)

    @staticmethod
    def from_payload(payload: dict[str, Any]) -> "CampaignSpec":
        data = dict(payload)
        for key in ("benchmarks", "split_layers", "key_bits"):
            if key in data:
                data[key] = tuple(data[key])
        attack = data.pop("attack", None)
        if attack is not None:
            data["attack"] = ProximityAttackConfig(**attack)
        return CampaignSpec(**data)


def expand(
    spec: CampaignSpec | Iterable[CellSpec],
) -> tuple[CellSpec, ...]:
    """Normalise a spec-or-cell-list argument to a tuple of cells."""
    if isinstance(spec, CampaignSpec):
        return spec.cells()
    return tuple(spec)


# ---------------------------------------------------------------------------
# Adversary-scenario campaigns (the cached ``attack`` stage's grid axis)


@dataclass(frozen=True)
class AttackCellSpec:
    """One (experiment cell, threat-model scenario) attack cell.

    The scenario must be *resolved* (concrete seed/budget) before the
    cell feeds the artifact cache; :meth:`AttackCampaignSpec.cells`
    resolves at expansion time so env-knob changes re-key instead of
    aliasing.  The same applies to ``defense``: ``None`` is the
    undefended baseline (keeping historical payloads and cache keys
    unchanged), otherwise a *resolved*
    :class:`~repro.defense.spec.DefenseSpec`.
    """

    cell: CellSpec
    scenario: Scenario
    defense: DefenseSpec | None = None

    @property
    def cell_id(self) -> str:
        """Human-readable identity, e.g. ``b14/M4/k128/netflow`` (a
        defended cell inserts the defense: ``b14/M4/k128/wire-lifting/
        netflow``)."""
        if self.defense is not None:
            return (
                f"{self.cell.cell_id}/{self.defense.name}"
                f"/{self.scenario.name}"
            )
        return f"{self.cell.cell_id}/{self.scenario.name}"

    @property
    def result_key(self) -> tuple:
        """The base cell's :attr:`CellSpec.result_key` + scenario last
        (a defended cell slots the defense name before the scenario, so
        consumers reading ``key[-1]`` still see the scenario)."""
        if self.defense is not None:
            return (
                *self.cell.result_key,
                self.defense.name,
                self.scenario.name,
            )
        return (*self.cell.result_key, self.scenario.name)

    def to_payload(self) -> dict[str, Any]:
        payload = {
            "cell": self.cell.to_payload(),
            "scenario": self.scenario.to_payload(),
        }
        if self.defense is not None:
            payload["defense"] = self.defense.to_payload()
        return payload

    @staticmethod
    def from_payload(payload: dict[str, Any]) -> "AttackCellSpec":
        defense = payload.get("defense")
        return AttackCellSpec(
            cell=CellSpec.from_payload(payload["cell"]),
            scenario=Scenario.from_payload(payload["scenario"]),
            defense=(
                DefenseSpec.from_payload(defense)
                if defense is not None
                else None
            ),
        )


@dataclass(frozen=True)
class AttackCampaignSpec:
    """A threat-model grid: defenses x scenarios x benchmarks x splits.

    Scenarios are referenced by registry name (see
    :data:`repro.adversary.scenario.SCENARIOS`), defenses likewise (see
    :data:`repro.defense.spec.DEFENSES`, plus the literal ``"none"``
    undefended baseline); the underlying lock/layout cells are shared
    with the classic campaigns, so an attack sweep over a grid that was
    already run only computes the new ``defense`` and ``attack`` stages.
    """

    benchmarks: tuple[str, ...]
    scenarios: tuple[str, ...] = ("netflow", "learned", "random")
    defenses: tuple[str, ...] = ("none",)
    split_layers: tuple[int, ...] = (4,)
    key_bits: tuple[int, ...] = (128,)
    seed: int = DEFAULT_SEED
    scale: float | None = None
    hd_patterns: int = 16_384
    hd_seed: int = DEFAULT_HD_SEED
    max_candidates: int = 250
    utilization: float = 0.70
    postprocess_seed: int = DEFAULT_POSTPROCESS_SEED

    def __post_init__(self) -> None:
        _check_names("scenarios", self.scenarios)
        _check_names("defenses", self.defenses)
        for name in self.scenarios:
            parse_scenario(name)
        for name in self.defenses:
            resolve_defense(name)  # raises KeyError for unknown names
        if not self.benchmarks:
            raise ValueError("attack campaign needs at least one benchmark")
        if not self.scenarios:
            raise ValueError("attack campaign needs at least one scenario")
        if not self.defenses:
            raise ValueError(
                "attack campaign needs at least one defense axis entry "
                "('none' is the undefended baseline)"
            )
        if not self.split_layers or not self.key_bits:
            raise ValueError("attack campaign needs split layers and key sizes")
        _check_grid(self)

    def base_campaign(self) -> CampaignSpec:
        """The classic campaign spec sharing this grid's cells."""
        return CampaignSpec(
            benchmarks=self.benchmarks,
            split_layers=self.split_layers,
            key_bits=self.key_bits,
            seed=self.seed,
            scale=self.scale,
            hd_patterns=self.hd_patterns,
            hd_seed=self.hd_seed,
            max_candidates=self.max_candidates,
            utilization=self.utilization,
            postprocess_seed=self.postprocess_seed,
        )

    def cells(self) -> tuple[AttackCellSpec, ...]:
        """Expand the grid; scenarios vary fastest so sibling scenario
        cells of one (layout, defense) land near each other in the
        schedule and share their lock/layout/defense artifacts early."""
        base = self.base_campaign().cells()
        return tuple(
            AttackCellSpec(
                cell=cell,
                scenario=parse_scenario(name).resolve(),
                defense=resolve_defense(dname),
            )
            for cell in base
            for dname in self.defenses
            for name in self.scenarios
        )

    def to_payload(self) -> dict[str, Any]:
        return asdict(self)

    @staticmethod
    def from_payload(payload: dict[str, Any]) -> "AttackCampaignSpec":
        data = dict(payload)
        for key in (
            "benchmarks",
            "scenarios",
            "defenses",
            "split_layers",
            "key_bits",
        ):
            if key in data:
                data[key] = tuple(data[key])
        return AttackCampaignSpec(**data)


def expand_attack(
    spec: AttackCampaignSpec | Iterable[AttackCellSpec],
) -> tuple[AttackCellSpec, ...]:
    """Normalise to a tuple of attack cells."""
    if isinstance(spec, AttackCampaignSpec):
        return spec.cells()
    return tuple(spec)


def proximity_cell(cell: CellSpec) -> AttackCellSpec:
    """The attack cell a Tables I/II cell runs as: the undefended
    ``proximity`` scenario (Sec. IV-A, configured by ``cell.attack``)."""
    return AttackCellSpec(cell, parse_scenario("proximity").resolve())


# ---------------------------------------------------------------------------
# Kind-discriminated JSON envelope (the campaign service's wire format)

#: Envelope ``kind`` for classic metric campaigns.
KIND_CAMPAIGN = "campaign"
#: Envelope ``kind`` for adversary-scenario campaigns.
KIND_ATTACKS = "attacks"


def spec_payload(spec: CampaignSpec | AttackCampaignSpec) -> dict[str, Any]:
    """Wrap *spec* in the kind-discriminated JSON envelope.

    The envelope is what clients POST to the campaign service and what
    job records store: ``{"kind": "campaign"|"attacks", "spec": {...}}``
    round-trips through :func:`parse_spec_payload` to an equal spec.
    """
    if isinstance(spec, AttackCampaignSpec):
        return {"kind": KIND_ATTACKS, "spec": spec.to_payload()}
    if isinstance(spec, CampaignSpec):
        return {"kind": KIND_CAMPAIGN, "spec": spec.to_payload()}
    raise TypeError(f"not a campaign spec: {type(spec).__name__}")


def parse_spec_payload(
    payload: Mapping[str, Any],
) -> CampaignSpec | AttackCampaignSpec:
    """Parse a kind-discriminated envelope back into its spec.

    Raises ``ValueError`` for a missing/unknown ``kind`` or a malformed
    ``spec`` body, so service handlers can map every bad submission to
    one error path.
    """
    if not isinstance(payload, Mapping):
        raise ValueError("spec envelope must be a JSON object")
    kind = payload.get("kind")
    body = payload.get("spec")
    if not isinstance(body, Mapping):
        raise ValueError("spec envelope needs a 'spec' object")
    try:
        if kind == KIND_CAMPAIGN:
            return CampaignSpec.from_payload(dict(body))
        if kind == KIND_ATTACKS:
            return AttackCampaignSpec.from_payload(dict(body))
    except (TypeError, KeyError, ValueError) as exc:
        raise ValueError(f"malformed {kind} spec: {exc}") from exc
    raise ValueError(
        f"unknown spec kind {kind!r}; expected "
        f"{KIND_CAMPAIGN!r} or {KIND_ATTACKS!r}"
    )
