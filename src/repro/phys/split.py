"""Layout splitting: derive the FEOL view an untrusted foundry receives.

A net whose routing uses layers above the split is *broken*.  What the
FEOL still shows depends on how much of the route fits below the split:

* **trunk-missing** — the vertical leg (even layer) fits in the FEOL but
  the horizontal trunk (odd layer) is above the split.  The FEOL then
  contains a dangling wire whose endpoint sits on the trunk's row: the
  classic directional hint ("routing of nets in the FEOL") proximity
  attacks consume.  Broken stubs of a true pair share their
  y-coordinate.
* **fully-missing** — both legs are above the split; only the pins' short
  escape segments remain, pointing roughly toward the partner.
* **key-nets** — lifted as pure stacked-via columns: the stub is exactly
  the pin location, carries no direction, and its is-a-key-pin nature is
  recognisable (the paper's improved attack uses that).

The assignment of source stubs to sink stubs is exactly the information
that stays at the trusted BEOL facility (the paper's ``lambda(x2)``).
The view deliberately models the attacker's full knowledge (Kerckhoff):
cell types (including TIE polarities), all FEOL-visible connections, stub
positions, escape directions and fanout branch counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType
from repro.phys.routing import Routing


@dataclass(frozen=True)
class SourceStub:
    """One dangling driver-side wire end of a broken net.

    Multi-fanout nets emit one branch stub per broken sink connection,
    as a real FEOL would show one dangling escape per planned branch.
    """

    stub_id: int
    owner: str  # driving gate name or "PAD:<net>"
    net: str  # ground truth — never used by the attacks for scoring
    x: float
    y: float
    is_tie: bool
    tie_value: int | None  # TIE polarity: visible in FEOL cell layout
    trunk_axis: str | None  # 'x' when the missing trunk runs horizontally


@dataclass(frozen=True)
class SinkStub:
    """Dangling sink-side stub of a broken net (one gate input pin)."""

    stub_id: int
    owner: str  # reading gate name or "PO:<net>"
    pin_index: int
    net: str  # ground truth — never used by the attacks for scoring
    x: float
    y: float
    has_escape: bool
    trunk_axis: str | None = None


@dataclass
class FeolView:
    """Everything the untrusted FEOL foundry holds after the split."""

    circuit_name: str
    split_layer: int
    gates: dict[str, object] = field(default_factory=dict)  # full cell list
    outputs: list[str] = field(default_factory=list)
    visible_nets: set[str] = field(default_factory=set)
    source_stubs: list[SourceStub] = field(default_factory=list)
    sink_stubs: list[SinkStub] = field(default_factory=list)

    def __setattr__(self, name: str, value) -> None:
        """Track stub-list and netlist reassignment for the cache tokens.

        The defenses (routing perturbation, wire lifting) rebuild a
        view's stub lists in place, and ``beol-restore`` swaps in a new
        gate table; bumping a version counter on every
        ``source_stubs``/``sink_stubs`` (resp. ``gates``/``outputs``)
        assignment lets the cached array backing
        (:mod:`repro.phys.geometry`) and the recovered-netlist table
        (:func:`repro.attacks.result.view_table`) invalidate
        deterministically instead of relying on object identity.
        """
        if name in ("source_stubs", "sink_stubs"):
            object.__setattr__(
                self, "_stub_version", getattr(self, "_stub_version", 0) + 1
            )
        elif name in ("gates", "outputs"):
            object.__setattr__(
                self, "_netlist_version", getattr(self, "_netlist_version", 0) + 1
            )
        object.__setattr__(self, name, value)

    def __getstate__(self) -> dict:
        """Drop the transient stub-array, candidate and table caches.

        The arrays (see :mod:`repro.phys.geometry`), the candidate sets
        (see :func:`repro.adversary.features.build_candidates`) and the
        recovered-netlist table (see :func:`repro.attacks.result.
        view_table`) are derived data, rebuilt on demand; persisting
        them would bloat every cached artifact that embeds a view.
        """
        state = dict(self.__dict__)
        state.pop("_stub_arrays", None)
        state.pop("_candidates", None)
        state.pop("_recovery_table", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    @property
    def broken_net_count(self) -> int:
        return len({s.net for s in self.source_stubs})

    @property
    def key_sink_stubs(self) -> list[SinkStub]:
        """Sink stubs with no FEOL escape: the key-gate inputs."""
        return [s for s in self.sink_stubs if not s.has_escape]

    @property
    def regular_sink_stubs(self) -> list[SinkStub]:
        return [s for s in self.sink_stubs if s.has_escape]


def split_layout(
    circuit: Circuit,
    routing: Routing,
    split_layer: int,
    key_nets: set[str] | None = None,
) -> FeolView:
    """Split the routed *circuit* at *split_layer*; returns the FEOL view.

    Dispatches between the reference splitter below and the array-native
    engine of :mod:`repro.phys.compiled` per ``REPRO_LAYOUT_ENGINE``;
    both are bit-identical.
    """
    from repro.phys.dispatch import resolve_layout_engine

    if resolve_layout_engine() == "compiled":
        from repro.phys.compiled import split_compiled

        return split_compiled(circuit, routing, split_layer, key_nets)
    return split_reference(circuit, routing, split_layer, key_nets)


def split_reference(
    circuit: Circuit,
    routing: Routing,
    split_layer: int,
    key_nets: set[str] | None = None,
) -> FeolView:
    """The pure-Python reference splitter (the compiled engine's oracle)."""
    key_nets = key_nets or set()
    view = FeolView(circuit.name, split_layer)
    view.gates = dict(circuit.gates)
    view.outputs = list(circuit.outputs)
    counter = [0]

    def next_id() -> int:
        counter[0] += 1
        return counter[0] - 1

    for net_name, routed in routing.nets.items():
        if routed.is_key_net:
            _emit_key_stubs(view, circuit, routed, next_id)
            continue
        if routed.top_layer <= split_layer:
            view.visible_nets.add(net_name)
            continue
        trunk_missing_only = routed.v_layer <= split_layer < routed.h_layer
        if trunk_missing_only:
            _emit_trunk_stubs(view, circuit, routed, next_id)
        else:
            _emit_pin_escape_stubs(view, circuit, routed, next_id)
    return view


def _tie_info(circuit: Circuit, net_name: str) -> tuple[bool, int | None]:
    driver = circuit.gates.get(net_name)
    if driver is None or not driver.is_tie:
        return False, None
    return True, 1 if driver.gate_type is GateType.TIEHI else 0


def _emit_key_stubs(view: FeolView, circuit: Circuit, routed, next_id) -> None:
    """Key-nets: stacked vias exactly on the pins, zero FEOL wiring."""
    is_tie, tie_value = _tie_info(circuit, routed.net)
    view.source_stubs.append(
        SourceStub(
            next_id(),
            routed.source.owner,
            routed.net,
            routed.source.x,
            routed.source.y,
            is_tie,
            tie_value,
            trunk_axis=None,
        )
    )
    for route in routed.routes:
        view.sink_stubs.append(
            SinkStub(
                next_id(),
                route.sink.owner,
                route.sink.pin_index,
                routed.net,
                route.sink.x,
                route.sink.y,
                has_escape=False,
                trunk_axis=None,
            )
        )


def _emit_trunk_stubs(view: FeolView, circuit: Circuit, routed, next_id) -> None:
    """Vertical legs visible, horizontal trunk missing: aligned stubs.

    With a V-first bend the source's visible leg ends at (x_src, y_sink);
    with an H-first bend the sink's visible leg ends at (x_sink, y_src).
    Either way both dangling ends of a true pair share one y-row, and the
    missing trunk runs along x.
    """
    is_tie, tie_value = _tie_info(circuit, routed.net)
    sx, sy = routed.source.x, routed.source.y
    for route in routed.routes:
        kx, ky = route.sink.x, route.sink.y
        if route.bend_first == "V":
            src_pt = (sx, ky)
            sink_pt = _nudge_toward(kx, ky, sx, escape=0.4)
        else:
            src_pt = _nudge_toward(sx, sy, kx, escape=0.4)
            sink_pt = (kx, sy)
        view.source_stubs.append(
            SourceStub(
                next_id(),
                routed.source.owner,
                routed.net,
                src_pt[0],
                src_pt[1],
                is_tie,
                tie_value,
                trunk_axis="x",
            )
        )
        view.sink_stubs.append(
            SinkStub(
                next_id(),
                route.sink.owner,
                route.sink.pin_index,
                routed.net,
                sink_pt[0],
                sink_pt[1],
                has_escape=True,
                trunk_axis="x",
            )
        )


def _emit_pin_escape_stubs(view: FeolView, circuit: Circuit, routed, next_id) -> None:
    """Both legs above the split: only short pin escapes remain."""
    is_tie, tie_value = _tie_info(circuit, routed.net)
    centroid_x = (
        sum(r.sink.x for r in routed.routes) / len(routed.routes)
        if routed.routes
        else routed.source.x
    )
    centroid_y = (
        sum(r.sink.y for r in routed.routes) / len(routed.routes)
        if routed.routes
        else routed.source.y
    )
    escape = 2.0
    sx, sy = _escape_point(
        routed.source.x, routed.source.y, centroid_x, centroid_y, escape
    )
    view.source_stubs.append(
        SourceStub(
            next_id(),
            routed.source.owner,
            routed.net,
            sx,
            sy,
            is_tie,
            tie_value,
            trunk_axis=None,
        )
    )
    for route in routed.routes:
        ex, ey = _escape_point(
            route.sink.x, route.sink.y, routed.source.x, routed.source.y, escape
        )
        view.sink_stubs.append(
            SinkStub(
                next_id(),
                route.sink.owner,
                route.sink.pin_index,
                routed.net,
                ex,
                ey,
                has_escape=True,
                trunk_axis=None,
            )
        )


def _nudge_toward(x: float, y: float, toward_x: float, escape: float) -> tuple[float, float]:
    """Short horizontal escape from a pin toward the missing trunk."""
    step = escape if toward_x >= x else -escape
    return (x + step, y)


def _escape_point(
    x: float, y: float, toward_x: float, toward_y: float, escape: float
) -> tuple[float, float]:
    """End of the FEOL escape segment leaving (x, y) toward a partner."""
    if escape <= 0.0:
        return (x, y)
    dx, dy = toward_x - x, toward_y - y
    dist = math.hypot(dx, dy)
    if dist < 1e-9:
        return (x, y)
    step = min(escape, dist / 2.0)
    return (x + dx / dist * step, y + dy / dist * step)


def ground_truth(view: FeolView) -> dict[int, str]:
    """Sink-stub id -> true driving net (for metric computation only)."""
    return {stub.stub_id: stub.net for stub in view.sink_stubs}
