"""The "ideal proximity attack" experiment (Sec. IV-A).

"The baseline here is that we assume all regular nets have been correctly
inferred; only key-nets remain to be attacked."  The strongest
conceivable FEOL-centric attacker is thus reduced to guessing the key-net
assignments, and the paper shows the OER remains 100% over one million
random guesses.  :func:`ideal_attack` builds that attacker: every regular
sink pin is connected to its true driver, and every key pin is assigned a
TIE cell uniformly at random.
"""

from __future__ import annotations

import random

from repro.attacks.result import AttackResult
from repro.phys.split import FeolView


def ideal_attack(view: FeolView, seed: int = 0) -> AttackResult:
    """All regular nets correct; key pins guessed uniformly over TIEs."""
    rng = random.Random(seed)
    tie_nets = [s.net for s in view.source_stubs if s.is_tie]
    assignment: dict[int, str] = {}
    for stub in view.sink_stubs:
        if stub.has_escape or not tie_nets:
            assignment[stub.stub_id] = stub.net  # ground truth for regular
        else:
            assignment[stub.stub_id] = rng.choice(tie_nets)
    result = AttackResult(
        view,
        assignment,
        strategy="ideal-proximity",
        engine="ideal",
        netlist_name=f"{view.circuit_name}_ideal",
    )
    result.diagnostics["seed"] = seed
    return result


def iter_ideal_guesses(view: FeolView, runs: int, seed: int = 0):
    """Yield *runs* independent ideal-attack results (fresh key guesses).

    Supports the paper's 1,000,000-run random-guessing campaign; the
    harness scales the run count to the available budget.
    """
    for index in range(runs):
        yield ideal_attack(view, seed=seed + index)


def random_key_guess(
    key_length: int, rng: random.Random
) -> tuple[int, ...]:
    """A uniform random key guess (for the keyspace-level experiments)."""
    return tuple(rng.randrange(2) for _ in range(key_length))
