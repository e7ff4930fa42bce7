"""First-class sweepable defenses (the arms-race subsystem).

The mirror image of :mod:`repro.adversary`: frozen cache-keyed
:class:`~repro.defense.spec.DefenseSpec` configurations compiled through
a named :class:`~repro.defense.engine.DefenseEngine` registry, so every
attack engine is automatically evaluated against every defense.

The registry implements the three published defenses the paper's
Table III compares against:

* [22] Wang et al., ASPDAC'17 — routing perturbation;
* [12] Patnaik et al., ASPDAC'18 — concerted wire lifting;
* [13] Patnaik et al., DAC'18 — functionality restore through the BEOL.

Each engine is a behaviourally faithful simplification: it produces a
protected FEOL view that the same attack and metric pipeline then
evaluates.  What matters for the reproduction is the *comparative
shape* of Table III — which defense leaves how much signal for the
attacker — not bit-exact mimicry of the original tools, none of which
are public.  Table III itself runs as ordinary attack x defense cells
(``benchmarks/bench_table3_prior_art.py``).
"""

# Engine modules register themselves on import.
from repro.defense import (  # noqa: F401
    beol_restore as _beol_restore,
    routing_perturbation as _routing_perturbation,
    wire_lifting as _wire_lifting,
)
from repro.defense.engine import (
    DefendedView,
    DefenseContext,
    DefenseCost,
    DefenseEngine,
    apply_defense,
    defense_engine_names,
    get_defense_engine,
    register_defense_engine,
)
from repro.defense.spec import (
    DEFAULT_DEFENSE_NAMES,
    DEFENSES,
    NO_DEFENSE,
    DefenseSpec,
    default_defense_names,
    parse_defense,
    resolve_defense,
)
from repro.defense.verdict import (
    LIFTING_SCHEMES,
    VERDICT_SCENARIOS,
    matrix_verdict,
)

__all__ = [
    "DEFAULT_DEFENSE_NAMES",
    "DEFENSES",
    "LIFTING_SCHEMES",
    "NO_DEFENSE",
    "VERDICT_SCENARIOS",
    "DefendedView",
    "DefenseContext",
    "DefenseCost",
    "DefenseEngine",
    "DefenseSpec",
    "apply_defense",
    "default_defense_names",
    "defense_engine_names",
    "get_defense_engine",
    "matrix_verdict",
    "parse_defense",
    "register_defense_engine",
    "resolve_defense",
]
