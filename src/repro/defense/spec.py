"""Declarative, cache-keyed defense specifications.

The mirror image of :mod:`repro.adversary.scenario`: a
:class:`DefenseSpec` is a frozen description of one published
split-manufacturing defense — which *scheme* runs, at what *strength*,
under which *seed*.  Specs are plain-scalar frozen dataclasses, so they

* pickle across campaign workers,
* canonicalise into artifact-cache keys (any field change invalidates
  the cached ``defense`` stage and everything downstream of it), and
* round-trip through JSON for the ``python -m repro.runner attacks``
  CLI and the campaign service's spec envelopes.

``none`` is deliberately *not* a scheme: the undefended baseline is the
absence of a spec (``resolve_defense("none") is None``), so undefended
cells keep their historical cache keys and payload shapes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any

from repro.utils.env import env_fraction, env_int, env_name

# -- published schemes -------------------------------------------------
SCHEME_WIRE_LIFTING = "wire-lifting"  # [12] Patnaik et al., ASPDAC'18
SCHEME_BEOL_RESTORE = "beol-restore"  # [13] Patnaik et al., DAC'18
SCHEME_ROUTING_PERTURBATION = "routing-perturbation"  # [22] Wang et al.

#: Default defense seed when neither the spec nor ``REPRO_DEFENSE_SEED``
#: pins one (the repo-wide experiment seed).
DEFAULT_DEFENSE_SEED = 2019

#: Published strength defaults per scheme (the Table III settings).
#: ``fraction`` is the share of candidate nets the defense protects;
#: the remaining knobs are scheme-specific.
SCHEME_DEFAULTS: dict[str, dict[str, float]] = {
    SCHEME_WIRE_LIFTING: {"fraction": 0.30},
    SCHEME_BEOL_RESTORE: {"fraction": 0.30, "obfuscate": 0.5},
    SCHEME_ROUTING_PERTURBATION: {
        "fraction": 0.25,
        "jog_um": 1.0,
        "cross_jog_um": 0.3,
    },
}


@dataclass(frozen=True)
class DefenseSpec:
    """One composable defense configuration.

    ``seed``/``fraction`` of ``None`` mean "resolve at campaign-expansion
    time" from the ``REPRO_DEFENSE_SEED``/``REPRO_DEFENSE_FRACTION``
    knobs (falling back to the defaults above) — the runner only ever
    caches *resolved* specs, so env changes can never alias cache
    entries.  Scheme-specific knobs left ``None`` resolve to the
    scheme's published default.
    """

    name: str
    scheme: str = SCHEME_WIRE_LIFTING
    fraction: float | None = None
    obfuscate: float | None = None  # beol-restore: gate-flip probability
    jog_um: float | None = None  # routing-perturbation: trunk jog
    cross_jog_um: float | None = None  # routing-perturbation: cross jog
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEME_DEFAULTS:
            raise ValueError(
                f"unknown defense scheme {self.scheme!r}; expected one of "
                f"{', '.join(sorted(SCHEME_DEFAULTS))}"
            )
        if self.fraction is not None and not 0.0 < self.fraction <= 1.0:
            raise ValueError(
                f"defense fraction {self.fraction!r} must be in (0, 1]"
            )
        if self.obfuscate is not None and not 0.0 <= self.obfuscate <= 1.0:
            raise ValueError(
                f"obfuscation probability {self.obfuscate!r} must be in [0, 1]"
            )

    @property
    def is_resolved(self) -> bool:
        return self.seed is not None and self.fraction is not None

    def resolve(self) -> "DefenseSpec":
        """Pin every ``None`` knob from the environment or the scheme.

        Must be called before a spec feeds a cache payload; the resolved
        copy is a pure value with no residual env dependence.
        """
        defaults = SCHEME_DEFAULTS[self.scheme]
        updates: dict[str, Any] = {}
        if self.seed is None:
            updates["seed"] = env_int(
                "REPRO_DEFENSE_SEED", DEFAULT_DEFENSE_SEED
            )
        if self.fraction is None:
            updates["fraction"] = env_fraction(
                "REPRO_DEFENSE_FRACTION", defaults["fraction"]
            )
        for knob in ("obfuscate", "jog_um", "cross_jog_um"):
            if getattr(self, knob) is None and knob in defaults:
                updates[knob] = defaults[knob]
        return replace(self, **updates) if updates else self

    def to_payload(self) -> dict[str, Any]:
        return asdict(self)

    @staticmethod
    def from_payload(payload: dict[str, Any]) -> "DefenseSpec":
        return DefenseSpec(**payload)


#: The undefended baseline's name on the campaign axis.
NO_DEFENSE = "none"

#: Named defenses (the CLI's vocabulary).  ``wire-lifting-lite`` sweeps
#: the same scheme at half strength, charting the cost/CCR trade-off the
#: paper's key-based scheme competes against.
DEFENSES: dict[str, DefenseSpec] = {
    spec.name: spec
    for spec in (
        DefenseSpec(
            "routing-perturbation", scheme=SCHEME_ROUTING_PERTURBATION
        ),
        DefenseSpec("wire-lifting", scheme=SCHEME_WIRE_LIFTING),
        DefenseSpec(
            "wire-lifting-lite", scheme=SCHEME_WIRE_LIFTING, fraction=0.15
        ),
        DefenseSpec("beol-restore", scheme=SCHEME_BEOL_RESTORE),
    )
}

#: The default matrix axis: the undefended baseline plus one instance of
#: every published scheme.
DEFAULT_DEFENSE_NAMES = (
    NO_DEFENSE,
    "routing-perturbation",
    "wire-lifting",
    "beol-restore",
)


def parse_defense(name: str) -> DefenseSpec:
    """Look up a named defense; raises ``KeyError`` with the vocabulary."""
    try:
        return DEFENSES[name]
    except KeyError:
        raise KeyError(
            f"unknown defense {name!r}; known: "
            f"{', '.join(sorted(DEFENSES) + [NO_DEFENSE])}"
        ) from None


def resolve_defense(name: str) -> DefenseSpec | None:
    """Resolve a defense axis entry: ``"none"`` means no defense."""
    if name == NO_DEFENSE:
        return None
    return parse_defense(name).resolve()


def default_defense_names() -> tuple[str, ...]:
    """The matrix default, narrowed by ``REPRO_DEFENSE_SCHEME`` when set.

    The knob restricts the axis to one named defense plus the undefended
    baseline every comparison needs; ``REPRO_DEFENSE_SCHEME=none`` keeps
    the baseline only.  Unknown names are rejected loudly.
    """
    choice = env_name(
        "REPRO_DEFENSE_SCHEME", tuple(sorted(DEFENSES)) + (NO_DEFENSE,)
    )
    if choice is None:
        return DEFAULT_DEFENSE_NAMES
    if choice == NO_DEFENSE:
        return (NO_DEFENSE,)
    return (NO_DEFENSE, choice)
