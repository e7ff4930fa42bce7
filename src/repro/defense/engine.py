"""The common defense-engine interface and its registry.

Every defense runs behind one contract, mirroring
:mod:`repro.adversary.engine`: a :class:`DefenseEngine` receives a
:class:`DefenseContext` (the locked physical layout plus the resolved
:class:`~repro.defense.spec.DefenseSpec`) and returns a
:class:`DefendedView` — a protected FEOL view plus the bookkeeping the
metric pipeline needs (which nets the defense hid, what the protection
cost in elevated wiring and via stacks).

Engines must be pure functions of their context: same layout + same
resolved spec ⇒ bit-identical view.  They must never mutate the layout
they are handed — it is typically a shared artifact-cache object — so
every engine re-splits a copy of the routing's net table in which only
the nets it changes are replaced (``dataclasses.replace``).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass, field

from repro.defense.spec import DefenseSpec
from repro.phys.layout import PhysicalLayout
from repro.phys.split import FeolView
from repro.utils.rng import rng_for


@dataclass(frozen=True)
class DefenseCost:
    """The physical price of one defense application.

    ``elevated_wirelength_um`` is wiring moved above the split layer (or
    added as detours); ``cost_units`` folds wirelength and via-stack
    height into one comparable scalar (the elevated-lifting cost model).
    """

    protected_nets: int = 0
    via_stacks: int = 0
    elevated_wirelength_um: float = 0.0
    cost_units: float = 0.0


@dataclass
class DefendedView:
    """A protected FEOL view plus the defense's bookkeeping."""

    view: FeolView
    spec: DefenseSpec
    protected_nets: frozenset[str]
    cost: DefenseCost
    diagnostics: dict[str, object] = field(default_factory=dict)

    def summary(self) -> dict[str, object]:
        """JSON-able provenance block for attack-outcome diagnostics."""
        return {
            "name": self.spec.name,
            "scheme": self.spec.scheme,
            "protected_nets": len(self.protected_nets),
            "cost": asdict(self.cost),
            **self.diagnostics,
        }


@dataclass
class DefenseContext:
    """Everything one engine invocation may look at."""

    layout: PhysicalLayout
    split_layer: int
    spec: DefenseSpec

    def rng(self, stream: str) -> random.Random:
        """A deterministic stream scoped to (seed, scheme, design)."""
        return rng_for(
            self.spec.seed,
            f"defense:{self.spec.scheme}:{stream}",
            self.layout.circuit.name,
        )


class DefenseEngine(ABC):
    """One defense scheme, selectable by name."""

    scheme: str = "abstract"

    @abstractmethod
    def apply(self, ctx: DefenseContext) -> DefendedView:
        """Protect ``ctx.layout``; must be a pure function of the context."""


_REGISTRY: dict[str, DefenseEngine] = {}


def register_defense_engine(engine: DefenseEngine) -> DefenseEngine:
    """Add *engine* to the registry (last registration wins)."""
    _REGISTRY[engine.scheme] = engine
    return engine


def get_defense_engine(scheme: str) -> DefenseEngine:
    try:
        return _REGISTRY[scheme]
    except KeyError:
        raise KeyError(
            f"unknown defense engine {scheme!r}; known: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


def defense_engine_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def apply_defense(
    spec: DefenseSpec, layout: PhysicalLayout, split_layer: int
) -> DefendedView:
    """Run the registered engine for *spec* against *layout*.

    Only resolved specs are accepted: an unresolved spec still depends
    on the environment, and caching its output would alias entries
    across env configurations.
    """
    if not spec.is_resolved:
        raise ValueError(
            f"defense spec {spec.name!r} must be resolved before "
            "application (call spec.resolve())"
        )
    engine = get_defense_engine(spec.scheme)
    return engine.apply(DefenseContext(layout, split_layer, spec))
