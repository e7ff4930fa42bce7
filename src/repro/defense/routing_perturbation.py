"""Routing perturbation as a first-class defense engine.

[22] Wang et al. (ASPDAC'17): a fraction of FEOL-complete nets are
re-routed with deliberate detours so their trunks cross the split layer
and the proximity heuristics mis-rank candidates.  Crucially the
dangling ends stay within a small jog of the true partner — lots of
residual signal, which is exactly why Table III still reports ~73% of
perturbed connections recovered.  The perturbation is real but weak.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.defense.engine import (
    DefendedView,
    DefenseContext,
    DefenseCost,
    DefenseEngine,
    register_defense_engine,
)
from repro.defense.spec import SCHEME_ROUTING_PERTURBATION
from repro.phys.split import FeolView, SourceStub, split_layout


def jog_stubs(
    view: FeolView,
    chosen: set[str],
    rng: random.Random,
    jog_um: float,
    cross_jog_um: float,
) -> None:
    """Re-seat perturbed source stubs within a jog of their sinks.

    A detour changes the wiring path but the FEOL portion still carries
    the signal most of the way: each perturbed source branch lands
    within ``jog_um``/``cross_jog_um`` of its sink, in emission order —
    the residual signal that keeps this defense weak.
    """
    sinks_of: dict[str, list] = {}
    for stub in view.sink_stubs:
        if stub.net in chosen:
            sinks_of.setdefault(stub.net, []).append(stub)
    branch_index: dict[str, int] = {}
    sources = []
    for stub in view.source_stubs:
        if stub.net not in chosen or stub.net not in sinks_of:
            sources.append(stub)
            continue
        index = branch_index.get(stub.net, 0)
        branch_index[stub.net] = index + 1
        partners = sinks_of[stub.net]
        partner = partners[min(index, len(partners) - 1)]
        sources.append(
            SourceStub(
                stub.stub_id,
                stub.owner,
                stub.net,
                partner.x + rng.uniform(-jog_um, jog_um),
                partner.y + rng.uniform(-cross_jog_um, cross_jog_um),
                stub.is_tie,
                stub.tie_value,
                stub.trunk_axis,
            )
        )
    view.source_stubs = sources


class RoutingPerturbationEngine(DefenseEngine):
    """[22]: detour a fraction of nets across the split layer."""

    scheme = SCHEME_ROUTING_PERTURBATION

    def apply(self, ctx: DefenseContext) -> DefendedView:
        layout = ctx.layout
        # The layout stays untouched: only the perturbed nets are copied.
        routing = replace(layout.routing, nets=dict(layout.routing.nets))
        rng = ctx.rng("perturb")
        candidates = [
            net
            for net, routed in routing.nets.items()
            if routed.routes
            and not routed.is_key_net
            and routed.top_layer <= ctx.split_layer
        ]
        rng.shuffle(candidates)
        chosen = candidates[
            : max(1, int(len(candidates) * ctx.spec.fraction))
        ] if candidates else []
        detour_wl = 0.0
        for net in chosen:
            routed = routing.nets[net]
            before = routed.length_um
            # push the net across the split: its trunk now runs one
            # pair up, at a detour-inflated length
            routed = routing.nets[net] = replace(
                routed,
                lower_layer=ctx.split_layer,
                detour_factor=max(
                    routed.detour_factor, 1.0 + rng.uniform(0.05, 0.2)
                ),
            )
            detour_wl += routed.length_um - before
        view = split_layout(
            layout.circuit, routing, ctx.split_layer, key_nets=layout.key_nets
        )
        jog_stubs(
            view, set(chosen), rng, ctx.spec.jog_um, ctx.spec.cross_jog_um
        )
        total_wl = layout.routing.total_wirelength()
        cost = DefenseCost(
            protected_nets=len(chosen),
            via_stacks=0,
            elevated_wirelength_um=detour_wl,
            cost_units=detour_wl,
        )
        diagnostics: dict[str, object] = {
            "detour_share": detour_wl / total_wl if total_wl else 0.0,
        }
        return DefendedView(
            view, ctx.spec, frozenset(chosen), cost, diagnostics
        )


register_defense_engine(RoutingPerturbationEngine())
