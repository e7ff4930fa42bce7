"""Global routing: star topology, L-shaped routes, layer-pair assignment.

The router mirrors the deterministic behaviour of commercial global
routers that proximity attacks bank on:

* every net is decomposed into source->sink two-pin connections routed as
  L-shapes (one horizontal + one vertical segment on a preferred-direction
  layer pair);
* the layer pair is chosen by net length — short nets stay on thin lower
  metal (M2/M3), longer nets climb to (M4/M5), (M6/M7), (M8/M9) — with
  congestion spilling nets one pair up when a pair's track capacity runs
  out.  This reproduces the paper's observation that higher split layers
  break fewer (and only longer) nets;
* each pin's wiring starts with a short *escape* segment pointing toward
  its partner before the via up to the routing pair.  After splitting,
  those escapes are precisely the dangling-wire direction hints the Wang
  et al. attack consumes.  (Key-nets, lifted as pure stacked-via columns,
  have no escapes — that is the point of the paper.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netlist.circuit import Circuit
from repro.phys.floorplan import Floorplan
from repro.phys.placement import Placement
from repro.phys.stackup import MetalStack


@dataclass(frozen=True)
class Pin:
    """One physical pin of a net."""

    owner: str  # gate name, or "PAD:<net>" / "PO:<net>" for I/O pads
    kind: str  # "source" | "sink"
    x: float
    y: float
    pin_index: int = -1  # fanin position for sink pins on gates


@dataclass
class TwoPinRoute:
    """One L-shaped source->sink connection."""

    sink: Pin
    h_length: float
    v_length: float
    bend_first: str  # "H" or "V": which leg leaves the source

    @property
    def length(self) -> float:
        return self.h_length + self.v_length


@dataclass
class RoutedNet:
    """Routing result for one net (driver + all its sinks)."""

    net: str
    source: Pin
    routes: list[TwoPinRoute] = field(default_factory=list)
    lower_layer: int = 2  # the (lower, lower+1) preferred-direction pair
    detour_factor: float = 1.0
    is_key_net: bool = False
    lift_layer: int | None = None  # key-nets: the layer they are lifted to
    eco_buffers: int = 0

    @property
    def top_layer(self) -> int:
        if self.is_key_net and self.lift_layer is not None:
            return self.lift_layer
        return self.lower_layer + 1

    @property
    def v_layer(self) -> int:
        """Layer index of the vertical segments (even = V in the stack)."""
        return self.lower_layer

    @property
    def h_layer(self) -> int:
        """Layer index of the horizontal segments (odd = H in the stack)."""
        return self.lower_layer + 1

    @property
    def length_um(self) -> float:
        return sum(r.length for r in self.routes) * self.detour_factor

    def escape_length(self, span: float) -> float:
        """Length of the FEOL escape stub for a pin of this net."""
        if self.is_key_net:
            return 0.0  # stacked vias directly on the pin
        return min(3.0, 0.15 * span)


@dataclass
class Routing:
    """All routed nets plus per-layer-pair congestion bookkeeping."""

    nets: dict[str, RoutedNet] = field(default_factory=dict)
    pair_usage: dict[int, float] = field(default_factory=dict)
    pair_capacity: dict[int, float] = field(default_factory=dict)

    def utilization(self, lower_layer: int) -> float:
        cap = self.pair_capacity.get(lower_layer, 0.0)
        if cap <= 0:
            return 0.0
        return self.pair_usage.get(lower_layer, 0.0) / cap

    def total_wirelength(self) -> float:
        return sum(net.length_um for net in self.nets.values())


def clamp_regular_nets(routing: Routing) -> None:
    """Force every non-key net onto the lowest routing pair (M2/M3).

    ISCAS-85-sized designs (a few hundred cells) route comfortably in
    the thin lower metals, so in the Table III setting nothing is broken
    at M4 except what the lock or a defense deliberately hides.
    """
    for routed in routing.nets.values():
        if not routed.is_key_net:
            routed.lower_layer = 2


#: Layer pairs available to signal routing, lowest first.
ROUTING_PAIRS = (2, 4, 6, 8)

#: Fraction of a pair's raw track length usable before spilling upward.
CAPACITY_FRACTION = 0.75


def collect_pins(
    circuit: Circuit, placement: Placement, floorplan: Floorplan
) -> dict[str, list[Pin]]:
    """Net name -> [source pin, sink pins...] from placement and pads."""
    pins: dict[str, list[Pin]] = {}
    anchors = floorplan.pad_ring.pads
    fanout = circuit.fanout_map()
    for gate in circuit.gates.values():
        net = gate.name
        if gate.is_input:
            if net in anchors:
                x, y = anchors[net]
                source = Pin(f"PAD:{net}", "source", x, y)
            else:  # floating input: anchor at origin (unused net)
                source = Pin(f"PAD:{net}", "source", 0.0, 0.0)
        else:
            x, y = placement.pin_location(net)
            source = Pin(net, "source", x, y)
        net_pins = [source]
        for reader in fanout[net]:
            rx, ry = placement.pin_location(reader)
            for position, fin in enumerate(circuit.gates[reader].fanin):
                if fin == net:
                    net_pins.append(Pin(reader, "sink", rx, ry, position))
        if net in circuit.outputs:
            pad = anchors.get(f"PO:{net}")
            if pad is not None:
                net_pins.append(Pin(f"PO:{net}", "sink", pad[0], pad[1]))
        if len(net_pins) >= 2:
            pins[net] = net_pins
    return pins


def route_design(
    circuit: Circuit,
    placement: Placement,
    floorplan: Floorplan,
    stack: MetalStack | None = None,
    seed: int = 2019,
    key_nets: set[str] | None = None,
) -> Routing:
    """Route every net; key-nets are skipped (handled by the lifting step).

    Runs the array-native router of :mod:`repro.phys.compiled`.
    """
    from repro.phys.compiled import route_compiled

    return route_compiled(
        circuit, placement, floorplan,
        stack=stack, seed=seed, key_nets=key_nets,
    )


#: Fraction of short nets in congested regions pushed one layer pair up.
SPILL_FRACTION = 0.15


def _assign_pair(routing: Routing, preferred: int, length: float) -> int:
    """Spill upward when the preferred pair is out of capacity.

    When everything above is full too, fall back downward (real routers
    overflow into lower layers rather than fail).
    """
    upward = [p for p in ROUTING_PAIRS if p >= preferred]
    downward = [p for p in reversed(ROUTING_PAIRS) if p < preferred]
    for pair in upward + downward:
        if pair not in routing.pair_capacity:
            continue
        used = routing.pair_usage[pair] + length
        if used <= routing.pair_capacity[pair]:
            return pair
    return preferred
