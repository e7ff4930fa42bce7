"""Matrix verdict: every defense must measurably weaken the attacks.

Raw CCR cannot compare defended against undefended cells: CCR is a rate
over the *broken* population, and a defense that breaks formerly
visible (100%-known) connections can raise the rate while lowering what
the attacker actually knows.  The comparable metric is the **effective
regular recovery** recorded in ``outcome.diagnostics["recovery"]`` — the
share of *all* regular routed connections the attacker ends up knowing,
counting still-visible FEOL connections as known — whose denominator is
constant across the defense axis of a cell.
"""

from __future__ import annotations

from typing import Iterable

#: Scenario names whose recovery must strictly drop under every defense.
VERDICT_SCENARIOS = ("netflow", "learned")

#: Schemes expected to reach the Table III "CCR ≈ 0" regime on their
#: protected nets.
LIFTING_SCHEMES = ("wire-lifting", "beol-restore")

#: Upper bound (percent) on protected-net CCR for the lifting family.
LIFTING_CCR_CEILING = 2.0


def _effective(item, problems: list[str], label: str) -> float | None:
    block = item.outcome.diagnostics.get("recovery")
    if not block:
        problems.append(
            f"{label}: missing recovery diagnostics (stale cache?)"
        )
        return None
    return block["effective_regular_recovery"]


def matrix_verdict(
    cells: Iterable, scenarios: tuple[str, ...] = VERDICT_SCENARIOS
) -> tuple[bool, list[str]]:
    """Judge a defense × attack matrix; returns ``(ok, problems)``.

    *cells* is any iterable of objects with ``.cell`` (an
    ``AttackCellSpec``) and ``.outcome`` (an ``AttackOutcome``) — the
    ``cells`` list of an ``AttackCampaignResult``.  For every base cell
    and every scenario in *scenarios*, each defended outcome must
    strictly reduce effective regular recovery below the undefended
    baseline of the same cell, and lifting-family defenses must hold
    their protected-net CCR at the Table III near-zero regime.
    """
    problems: list[str] = []
    groups: dict[tuple, dict[str, object]] = {}
    for item in cells:
        acell = item.cell
        if acell.scenario.name not in scenarios:
            continue
        name = acell.defense.name if acell.defense else "none"
        key = (acell.cell.result_key, acell.scenario.name)
        groups.setdefault(key, {})[name] = item
    if not groups:
        problems.append(
            f"no {'/'.join(scenarios)} cells in the grid to judge"
        )
    for (base_key, scenario), by_defense in sorted(groups.items()):
        label = "/".join(str(part) for part in base_key) + f"/{scenario}"
        baseline = by_defense.get("none")
        if baseline is None:
            problems.append(f"{label}: no undefended baseline in the grid")
            continue
        floor = _effective(baseline, problems, f"{label}/none")
        for name in sorted(by_defense):
            if name == "none":
                continue
            item = by_defense[name]
            recovery = _effective(item, problems, f"{label}/{name}")
            if recovery is not None and floor is not None:
                if recovery >= floor:
                    problems.append(
                        f"{label}/{name}: effective recovery "
                        f"{recovery:.2f}% did not drop below the "
                        f"undefended {floor:.2f}%"
                    )
            spec = item.cell.defense
            if spec.scheme in LIFTING_SCHEMES:
                block = item.outcome.diagnostics.get("defense") or {}
                ccr = block.get("protected_ccr")
                if ccr is None:
                    problems.append(
                        f"{label}/{name}: missing defense diagnostics "
                        "(stale cache?)"
                    )
                elif ccr > LIFTING_CCR_CEILING:
                    problems.append(
                        f"{label}/{name}: protected CCR {ccr:.2f}% above "
                        f"the Table III ceiling {LIFTING_CCR_CEILING}%"
                    )
    return (not problems, problems)
