"""Random-guess baseline attack: the theoretical floor of Theorem 1.

Connects every broken sink pin to a uniformly random compatible source
(key pins to random TIE cells, regular pins to random drivers).  Any
attack that beats this baseline on key-nets would contradict the paper's
security claim; the benches use it to show the proximity attack does
*not* beat it on key-nets while it *does* on regular nets.
"""

from __future__ import annotations

import random

from repro.attacks.result import AttackResult
from repro.phys.split import FeolView


def random_guess_attack(view: FeolView, seed: int = 0) -> AttackResult:
    """Uniformly random assignment of all broken pins."""
    rng = random.Random(seed)
    tie_nets = [s.net for s in view.source_stubs if s.is_tie]
    regular_nets = [s.net for s in view.source_stubs if not s.is_tie]
    assignment: dict[int, str] = {}
    for stub in view.sink_stubs:
        if not stub.has_escape and tie_nets:
            assignment[stub.stub_id] = rng.choice(tie_nets)
        elif regular_nets:
            assignment[stub.stub_id] = rng.choice(regular_nets)
        elif tie_nets:
            assignment[stub.stub_id] = rng.choice(tie_nets)
    result = AttackResult(
        view,
        assignment,
        strategy="random-guess",
        engine="random",
        netlist_name=f"{view.circuit_name}_randomguess",
    )
    result.diagnostics["seed"] = seed
    return result
