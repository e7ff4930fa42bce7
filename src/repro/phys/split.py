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

        The arrays and shortlists (see :mod:`repro.phys.geometry`), the
        candidate sets (see :func:`repro.adversary.features.
        build_candidates`), the loop hint's reachability (see
        :func:`repro.attacks.proximity.initial_reachability`) and the
        recovered-netlist table (see :func:`repro.attacks.result.
        view_table`) are derived data, rebuilt on demand; persisting
        them would bloat every cached artifact that embeds a view.
        """
        state = dict(self.__dict__)
        state.pop("_stub_arrays", None)
        state.pop("_shortlists", None)
        state.pop("_candidates", None)
        state.pop("_reachability", None)
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

    Runs the array-native splitter of :mod:`repro.phys.compiled`.
    """
    from repro.phys.compiled import split_compiled

    return split_compiled(circuit, routing, split_layer, key_nets)


def _tie_info(circuit: Circuit, net_name: str) -> tuple[bool, int | None]:
    driver = circuit.gates.get(net_name)
    if driver is None or not driver.is_tie:
        return False, None
    return True, 1 if driver.gate_type is GateType.TIEHI else 0
