"""Concerted wire lifting as a first-class defense engine.

[12] Patnaik et al., "Concerted Wire Lifting" (ASPDAC'18): strategically
selected nets are lifted wholesale above the split layer through via
stacks placed at shared *lifting sites*, leaving no FEOL escape wiring
and no per-net proximity signal — the candidate sets of co-sited nets
overlap maximally.  Table III reports CCR ≈ 0 for this defense, at the
price of elevated wiring and tall via stacks (the cost model below).

The engine protects the *locked* layout it is handed: the paper's
key-nets stay lifted and the defense adds its own lifted population on
top, so defense × attack matrices compose both protections (Table III
hands it a ``key_bits=0`` layout, i.e. the unlocked design).  Net
selection scores output reach × 40 + fanout × 10 + routed span,
descending, via the single-pass :meth:`Circuit.output_reach_counts`
reverse-reachability bitsets; the re-split runs through the compiled
layout engine.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

from repro.defense.engine import (
    DefendedView,
    DefenseContext,
    DefenseCost,
    DefenseEngine,
    register_defense_engine,
)
from repro.defense.spec import SCHEME_WIRE_LIFTING
from repro.netlist.circuit import Circuit
from repro.phys.layout import PhysicalLayout
from repro.phys.routing import Routing
from repro.phys.split import FeolView, SinkStub, SourceStub, split_layout

#: Average protected stubs sharing one lifting site; smaller means more
#: sites (weaker concertation), larger means heavier candidate overlap.
STUBS_PER_SITE = 6


def select_protected_nets(
    circuit: Circuit, routing: Routing, fraction: float
) -> list[str]:
    """Pick lifting candidates the way [12] prioritises.

    Functionally central, high-fanout, long nets first, skipping the
    paper's own key-nets (already lifted by the locked flow); output
    reach comes from one reverse-reachability pass instead of per-net
    cone walks.  Returns nets in selection (score) order.
    """
    reach = circuit.output_reach_counts()
    scored = []
    for net, routed in routing.nets.items():
        if routed.is_key_net or not routed.routes:
            continue
        span = sum(r.length for r in routed.routes)
        influence = reach.get(net, 0)
        scored.append(
            (influence * 40.0 + len(routed.routes) * 10.0 + span, net)
        )
    scored.sort(reverse=True)
    count = max(1, int(len(scored) * fraction))
    return [net for _, net in scored[:count]]


def lifting_sites(
    layout: PhysicalLayout, stub_count: int
) -> list[tuple[float, float]]:
    """The shared via-stack lattice the lifted pins are re-seated onto."""
    grid = max(2, math.isqrt(max(1, stub_count // STUBS_PER_SITE)))
    width = layout.floorplan.width_um
    height = layout.floorplan.height_um
    return [
        ((col + 0.5) * width / grid, (row + 0.5) * height / grid)
        for row in range(grid)
        for col in range(grid)
    ]


def concert_stubs(
    view: FeolView,
    chosen: set[str],
    layout: PhysicalLayout,
    rng: random.Random,
) -> list[tuple[float, float]]:
    """Re-seat every lifted stub onto a shared lifting site.

    Co-siting is the concerted part of [12]: stubs of different lifted
    nets land on *identical* coordinates, so distance carries no pairing
    signal and candidate sets coincide.  Source stubs are re-seated
    first, then sinks, each drawing its site from one deterministic
    stream; list reassignment (not item mutation) keeps the
    ``stub_arrays`` invalidation token honest.
    """
    protected = sum(1 for s in view.source_stubs if s.net in chosen)
    protected += sum(1 for s in view.sink_stubs if s.net in chosen)
    sites = lifting_sites(layout, protected)

    def seat() -> tuple[float, float]:
        return sites[rng.randrange(len(sites))]

    sources = []
    for stub in view.source_stubs:
        if stub.net in chosen:
            x, y = seat()
            stub = SourceStub(
                stub.stub_id, stub.owner, stub.net, x, y,
                stub.is_tie, stub.tie_value, None,
            )
        sources.append(stub)
    sinks = []
    for stub in view.sink_stubs:
        if stub.net in chosen:
            x, y = seat()
            stub = SinkStub(
                stub.stub_id, stub.owner, stub.pin_index, stub.net,
                x, y, stub.has_escape, None,
            )
        sinks.append(stub)
    view.source_stubs = sources
    view.sink_stubs = sinks
    return sites


def elevated_cost(
    routing: Routing, chosen: list[str], split_layer: int
) -> DefenseCost:
    """The elevated-lifting cost model of [12].

    One via stack per pin of every lifted net (driver + each sink),
    each climbing from the FEOL routing planes to ``split_layer + 1``;
    the lifted wirelength itself now occupies premium upper metal.
    """
    via_stacks = 0
    elevated_wl = 0.0
    for net in chosen:
        routed = routing.nets[net]
        via_stacks += 1 + len(routed.routes)
        elevated_wl += routed.length_um
    stack_height = max(1, split_layer - 1)
    return DefenseCost(
        protected_nets=len(chosen),
        via_stacks=via_stacks,
        elevated_wirelength_um=elevated_wl,
        cost_units=elevated_wl + 0.5 * via_stacks * stack_height,
    )


def lift_protected(
    ctx: DefenseContext,
) -> tuple[FeolView, list[str], DefenseCost, dict[str, object]]:
    """The shared lifting pipeline ([13] builds on the same mechanics).

    Lifts the selected nets fully above the split (both route legs, so
    the FEOL retains bare pin stubs), re-splits through the compiled
    layout engine, then co-sites the lifted stubs.
    """
    layout = ctx.layout
    # The layout stays untouched: only the lifted nets are copied.
    routing = replace(layout.routing, nets=dict(layout.routing.nets))
    chosen = select_protected_nets(layout.circuit, routing, ctx.spec.fraction)
    for net in chosen:
        routing.nets[net] = replace(
            routing.nets[net], lower_layer=ctx.split_layer + 1
        )
    view = split_layout(
        layout.circuit, routing, ctx.split_layer, key_nets=layout.key_nets
    )
    sites = concert_stubs(view, set(chosen), layout, ctx.rng("sites"))
    cost = elevated_cost(routing, chosen, ctx.split_layer)
    total_wl = layout.routing.total_wirelength()
    diagnostics: dict[str, object] = {
        "lifting_sites": len(sites),
        "elevated_share": (
            cost.elevated_wirelength_um / total_wl if total_wl else 0.0
        ),
    }
    return view, chosen, cost, diagnostics


class WireLiftingEngine(DefenseEngine):
    """[12]: concerted lifting of strategically selected nets."""

    scheme = SCHEME_WIRE_LIFTING

    def apply(self, ctx: DefenseContext) -> DefendedView:
        view, chosen, cost, diagnostics = lift_protected(ctx)
        return DefendedView(
            view, ctx.spec, frozenset(chosen), cost, diagnostics
        )


register_defense_engine(WireLiftingEngine())
