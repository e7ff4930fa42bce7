"""The common attack-engine interface and its registry.

Every attack — the legacy one-off scripts and the new matchers — runs
behind one contract: an :class:`AttackEngine` receives an
:class:`AttackContext` (the FEOL view plus exactly the extras its
scenario's knowledge level grants) and returns the shared
:class:`~repro.attacks.result.AttackResult`.  The registry maps engine
names to instances so scenarios, the CLI and the env knobs select
engines by name.

Engines must honour the knowledge contract: ``ctx.locked`` exposes the
locked netlist *structure* (FEOL-public under Kerckhoff) and engines
must never read TIE polarities or key values from it; ground truth
enters only through ``ctx.oracle`` when the scenario grants one.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace

import numpy as np

from repro.adversary.features import build_candidates
from repro.adversary.netflow import flow_assignment
from repro.adversary.scenario import Scenario
from repro.attacks.ideal import ideal_attack
from repro.attacks.proximity import ProximityAttackConfig, proximity_attack
from repro.attacks.random_guess import random_guess_attack
from repro.attacks.result import AttackResult
from repro.attacks.sat_attack import sat_futility_attack
from repro.locking.key import LockedCircuit
from repro.netlist.circuit import Circuit
from repro.phys.split import FeolView

#: Default driver-load capacity for hint-armed matchers (mirrors the
#: greedy attack's ``load_limit``).
DEFAULT_LOAD_LIMIT = 5

#: Candidate sources considered per sink by the matcher engines.
DEFAULT_CANDIDATES_PER_SINK = 16


@dataclass
class AttackContext:
    """Everything one engine invocation may look at.

    ``cache`` (when present) is the campaign's artifact cache, offered
    so engines with expensive scenario-independent setup (the learned
    scorer's training run) can persist it across cells and workers.
    """

    view: FeolView
    scenario: Scenario
    seed: int
    budget: int
    locked: LockedCircuit | None = None
    oracle: Circuit | None = None
    cache: object | None = None
    attack: ProximityAttackConfig = field(default_factory=ProximityAttackConfig)
    diagnostics: dict[str, object] = field(default_factory=dict)


class AttackEngine(ABC):
    """One attack strategy, selectable by name."""

    name: str = "abstract"

    @abstractmethod
    def run(self, ctx: AttackContext) -> AttackResult:
        """Attack ``ctx.view``; must be a pure function of the context."""


_REGISTRY: dict[str, AttackEngine] = {}


def register_engine(engine: AttackEngine) -> AttackEngine:
    """Add *engine* to the registry (last registration wins)."""
    _REGISTRY[engine.name] = engine
    return engine


def get_engine(name: str) -> AttackEngine:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown attack engine {name!r}; known: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


def engine_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


# ----------------------------------------------------------------------
# Legacy attacks behind the engine interface
# ----------------------------------------------------------------------
class ProximityEngine(AttackEngine):
    """The greedy proximity attack (Wang et al. style), configured by
    ``ctx.attack``; a scenario without hints switches off the timing and
    load hints (acyclicity is a fabricability constraint, not a hint)."""

    name = "proximity"

    def run(self, ctx: AttackContext) -> AttackResult:
        hints = ctx.scenario.has_hints
        config = replace(
            ctx.attack,
            seed=ctx.seed,
            use_timing_hint=ctx.attack.use_timing_hint and hints,
            use_load_hint=ctx.attack.use_load_hint and hints,
        )
        return proximity_attack(ctx.view, config)


class RandomGuessEngine(AttackEngine):
    """Theorem-1 floor: uniformly random compatible assignment."""

    name = "random"

    def run(self, ctx: AttackContext) -> AttackResult:
        return random_guess_attack(ctx.view, seed=ctx.seed)


class IdealEngine(AttackEngine):
    """The paper's ideal attacker: all regular nets granted."""

    name = "ideal"

    def run(self, ctx: AttackContext) -> AttackResult:
        return ideal_attack(ctx.view, seed=ctx.seed)


class SatEngine(AttackEngine):
    """Oracle-less SAT probe; demonstrably reduces to random guessing."""

    name = "sat"

    def run(self, ctx: AttackContext) -> AttackResult:
        if ctx.locked is None:
            raise ValueError("the SAT engine needs the locked netlist")
        return sat_futility_attack(
            ctx.view,
            ctx.locked,
            sample_keys=min(ctx.budget, 32),
            seed=ctx.seed,
        )


# ----------------------------------------------------------------------
# New engines: network-flow matching and the learned scorer
# ----------------------------------------------------------------------
class FlowMatcherEngine(AttackEngine):
    """Shared pipeline of the matcher engines: cost -> flow -> repair.

    Subclasses supply only the per-pair cost model via :meth:`costs`
    (plus any extra diagnostics); candidate generation, the hint-3
    load capacities, the min-cost-flow matching, the loop repair and
    the netlist rebuild are structurally identical — the two new
    engines differ *only* in how they score a candidate pair.
    """

    strategy: str = "flow-matcher"

    def costs(
        self, ctx: AttackContext, candidates
    ) -> tuple[np.ndarray, dict[str, object]]:
        """Per-pair cost vector (lower = more plausible) + diagnostics."""
        raise NotImplementedError

    def run(self, ctx: AttackContext) -> AttackResult:
        view = ctx.view
        candidates = build_candidates(
            view, per_sink=DEFAULT_CANDIDATES_PER_SINK
        )
        costs, cost_diagnostics = self.costs(ctx, candidates)
        load_limit = DEFAULT_LOAD_LIMIT if ctx.scenario.has_hints else None
        assignment, diagnostics = flow_assignment(
            view, candidates, costs, load_limit=load_limit
        )
        result = AttackResult(
            view,
            assignment,
            strategy=self.strategy,
            engine=self.name,
            netlist_name=f"{view.circuit_name}_{self.name}",
        )
        result.diagnostics.update(diagnostics)
        result.diagnostics["load_limit"] = load_limit
        result.diagnostics.update(cost_diagnostics)
        return result


class NetflowEngine(FlowMatcherEngine):
    """Globally-optimal min-cost-flow matching over proximity costs.

    Hints 1-2 feed the arc costs (the hand-crafted composite score);
    hint 3 becomes driver-net capacities when the scenario grants the
    hint level; hint 4 runs as the deterministic loop-repair pass.
    """

    name = "netflow"
    strategy = "netflow"

    def costs(self, ctx, candidates):
        return candidates.features[:, -1] * candidates.span, {}  # hand score


class LearnedEngine(FlowMatcherEngine):
    """Learned proximity scoring (Li et al., DL-perspective style).

    A NumPy-only logistic-regression scorer, trained on self-generated
    labeled splits of benchgen profiles, replaces the hand-crafted
    score; matching still goes through the globally-optimal flow
    matcher so the two new engines differ only in their cost model.
    """

    name = "learned"
    strategy = "learned-proximity"

    def costs(self, ctx, candidates):
        from repro.adversary.learned import (
            default_train_config,
            trained_scorer,
        )

        scorer = trained_scorer(default_train_config(), cache=ctx.cache)
        probabilities = scorer.probabilities(candidates.features)
        # Cost = -log p, floored to keep arcs finite and non-negative.
        costs = -np.log(np.clip(probabilities, 1e-9, 1.0))
        return costs, {"scorer": scorer.summary()}


for _engine in (
    ProximityEngine(),
    RandomGuessEngine(),
    IdealEngine(),
    SatEngine(),
    NetflowEngine(),
    LearnedEngine(),
):
    register_engine(_engine)
