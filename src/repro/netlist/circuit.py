"""Gate-level netlist data structure.

The model follows the ISCAS convention: a *gate* and the *net* it drives
share one name.  A :class:`Circuit` is a DAG of :class:`Gate` objects plus a
list of primary outputs (net names).  Sequential designs are supported
through ``DFF`` gates; :meth:`Circuit.combinational_core` exposes the
combinational view used by locking, ATPG and the attacks (DFF outputs become
pseudo primary inputs, DFF data inputs pseudo primary outputs), exactly as
the paper's formalism ("the notion can be readily extended for sequential
designs").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple

from repro.netlist.gate_types import (
    COMBINATIONAL_TYPES,
    SOURCE_TYPES,
    GateType,
    fanin_arity_ok,
)


class NetlistError(Exception):
    """Raised for structural violations of the netlist model."""


@dataclass(frozen=True)
class Gate:
    """One gate instance; drives the net named :attr:`name`."""

    name: str
    gate_type: GateType
    fanin: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise NetlistError("gate name must be non-empty")
        if not isinstance(self.fanin, tuple):
            object.__setattr__(self, "fanin", tuple(self.fanin))
        if not fanin_arity_ok(self.gate_type, len(self.fanin)):
            raise NetlistError(
                f"gate {self.name!r}: type {self.gate_type.value} does not "
                f"accept {len(self.fanin)} fanin nets"
            )

    @property
    def is_input(self) -> bool:
        return self.gate_type is GateType.INPUT

    @property
    def is_dff(self) -> bool:
        return self.gate_type is GateType.DFF

    @property
    def is_tie(self) -> bool:
        return self.gate_type in (GateType.TIEHI, GateType.TIELO)

    @property
    def is_combinational(self) -> bool:
        return self.gate_type in COMBINATIONAL_TYPES

    def with_fanin(self, fanin: Iterable[str]) -> "Gate":
        """Return a copy of this gate with replaced fanin nets."""
        return Gate(self.name, self.gate_type, tuple(fanin))

    def with_type(self, gate_type: GateType) -> "Gate":
        """Return a copy of this gate with a different type."""
        return Gate(self.name, gate_type, self.fanin)


class SinkTable(NamedTuple):
    """Every net's observing sinks, one bit per alias entry.

    ``entries[i]`` is ``(sink_net, alias)`` for bit *i*: first one
    ``PO:<out>`` entry per primary output in :attr:`Circuit.outputs`
    order (keyed by the output net), then one ``DFF:<q>`` entry per DFF
    in :attr:`Circuit.dffs` order (keyed by its D net).  ``masks[net]``
    has bit *i* set when the entry's sink net lies in
    ``transitive_fanout([net])``; ``po_mask`` holds the bit of the first
    entry of each distinct output net.
    """

    entries: tuple[tuple[str, str], ...]
    masks: dict[str, int]
    po_mask: int


class _Roles(NamedTuple):
    """Gate names by role, from one scan of the gate dict."""

    inputs: tuple[str, ...]
    dffs: tuple[str, ...]
    tie_cells: tuple[str, ...]
    logic: frozenset[str]  # every net not driven by an INPUT, DFF or TIE


@dataclass
class CircuitStats:
    """Summary statistics of a circuit (used in reports and profiles)."""

    name: str
    num_inputs: int
    num_outputs: int
    num_gates: int
    num_dffs: int
    num_ties: int
    depth: int
    type_histogram: dict[str, int] = field(default_factory=dict)


class Circuit:
    """A named gate-level netlist.

    Gates are stored in insertion order in :attr:`gates` (name -> Gate).
    Primary inputs are gates of type ``INPUT``; primary outputs are net
    names listed in :attr:`outputs` (an output may alias any driven net).

    Derived views are cached: fanout, topological order and index,
    levels, the compiled simulation program, the role lists
    (:attr:`inputs`, :attr:`dffs`, :attr:`tie_cells`,
    :attr:`is_sequential`, :meth:`logic_nets`), the :meth:`sink_table`
    and every :meth:`cached_view`.  Every edit made through the methods
    here (adding, replacing or removing a gate; adding or renaming an
    output) clears them all, so edit :attr:`gates` and :attr:`outputs` only
    through those methods, or call :meth:`_invalidate` afterwards.
    """

    def __init__(
        self,
        name: str,
        gates: Iterable[Gate] = (),
        outputs: Iterable[str] = (),
    ) -> None:
        self.name = name
        self.gates: dict[str, Gate] = {}
        self.outputs: list[str] = []
        self._fanout_cache: dict[str, tuple[str, ...]] | None = None
        self._topo_cache: list[str] | None = None
        self._levels_cache: dict[str, int] | None = None
        self._compiled_cache: object | None = None
        self._views: dict[object, object] = {}
        for gate in gates:
            self.add_gate(gate)
        for net in outputs:
            self.add_output(net)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_gate(self, gate: Gate) -> Gate:
        """Insert *gate*; raises if a driver for that net already exists."""
        if gate.name in self.gates:
            raise NetlistError(f"net {gate.name!r} already has a driver")
        self.gates[gate.name] = gate
        self._invalidate()
        return gate

    def add(
        self, name: str, gate_type: GateType, fanin: Iterable[str] = ()
    ) -> Gate:
        """Convenience wrapper: build and insert a gate in one call."""
        return self.add_gate(Gate(name, gate_type, tuple(fanin)))

    def add_input(self, name: str) -> Gate:
        return self.add(name, GateType.INPUT)

    def add_output(self, net: str) -> None:
        if net in self.outputs:
            raise NetlistError(f"net {net!r} is already a primary output")
        self.outputs.append(net)
        self._invalidate()

    def replace_gate(self, gate: Gate) -> None:
        """Replace the driver of ``gate.name`` (which must already exist)."""
        if gate.name not in self.gates:
            raise NetlistError(f"net {gate.name!r} has no driver to replace")
        self.gates[gate.name] = gate
        self._invalidate()

    def remove_gate(self, name: str) -> None:
        """Remove the gate driving net *name* (callers fix dangling refs)."""
        if name not in self.gates:
            raise NetlistError(f"net {name!r} has no driver")
        del self.gates[name]
        self._invalidate()

    def rename_output(self, old: str, new: str) -> None:
        """Re-point a primary output from net *old* to net *new*."""
        self.outputs[self.outputs.index(old)] = new
        self._invalidate()

    def fresh_name(self, prefix: str) -> str:
        """Return a net name starting with *prefix* not yet used."""
        if prefix not in self.gates:
            return prefix
        index = 0
        while f"{prefix}_{index}" in self.gates:
            index += 1
        return f"{prefix}_{index}"

    def _invalidate(self) -> None:
        self._fanout_cache = None
        self._topo_cache = None
        self._levels_cache = None
        self._compiled_cache = None
        self._views = {}

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict[str, object]:
        """Pickle only the structure; derived caches (topological order,
        fanout, the compiled simulation program) are cheap to rebuild and
        would otherwise bloat artifact-cache blobs and worker hand-offs."""
        return {"name": self.name, "gates": self.gates, "outputs": self.outputs}

    def __setstate__(self, state: dict[str, object]) -> None:
        self.name = state["name"]
        self.gates = state["gates"]
        self.outputs = state["outputs"]
        self._invalidate()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def _roles(self) -> _Roles:
        roles = self._views.get("roles")
        if roles is None:
            inputs: list[str] = []
            dffs: list[str] = []
            ties: list[str] = []
            logic: set[str] = set()
            for gate in self.gates.values():
                if gate.is_input:
                    inputs.append(gate.name)
                elif gate.is_dff:
                    dffs.append(gate.name)
                elif gate.is_tie:
                    ties.append(gate.name)
                else:
                    logic.add(gate.name)
            roles = _Roles(tuple(inputs), tuple(dffs), tuple(ties), frozenset(logic))
            self._views["roles"] = roles
        return roles

    @property
    def inputs(self) -> list[str]:
        """Primary input net names, in insertion order."""
        return list(self._roles().inputs)

    @property
    def dffs(self) -> list[str]:
        """Names of all DFF gates, in insertion order."""
        return list(self._roles().dffs)

    @property
    def tie_cells(self) -> list[str]:
        """Names of all TIEHI/TIELO gates, in insertion order."""
        return list(self._roles().tie_cells)

    @property
    def is_sequential(self) -> bool:
        return bool(self._roles().dffs)

    def logic_nets(self) -> frozenset[str]:
        """Nets whose driver is not a source (INPUT, DFF or TIE); cached."""
        return self._roles().logic

    def cached_view(self, key: object, build: Callable[[], object]) -> object:
        """``build()``, memoised under *key* and cleared with every other view."""
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = build()
        return view

    def __len__(self) -> int:
        return len(self.gates)

    def __contains__(self, net: str) -> bool:
        return net in self.gates

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates.values())

    def gate(self, net: str) -> Gate:
        try:
            return self.gates[net]
        except KeyError as exc:
            raise NetlistError(f"net {net!r} has no driver") from exc

    def num_logic_gates(self) -> int:
        """Count of gates excluding INPUTs (the usual 'gate count')."""
        return sum(1 for g in self.gates.values() if not g.is_input)

    def fanout_map(self) -> dict[str, tuple[str, ...]]:
        """Map net name -> names of gates reading that net (cached)."""
        if self._fanout_cache is None:
            fanout: dict[str, list[str]] = {name: [] for name in self.gates}
            for gate in self.gates.values():
                for net in gate.fanin:
                    if net not in fanout:
                        raise NetlistError(
                            f"gate {gate.name!r} reads undriven net {net!r}"
                        )
                    fanout[net].append(gate.name)
            self._fanout_cache = {k: tuple(v) for k, v in fanout.items()}
        return self._fanout_cache

    def topological_order(self) -> list[str]:
        """Gate names in topological order (DFFs treated as sources).

        DFF *outputs* are sequential sources; their D inputs do not create
        combinational dependencies, so a netlist with DFF feedback loops is
        still orderable.  Raises :class:`NetlistError` on a combinational
        cycle.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        order: list[str] = []
        indegree: dict[str, int] = {}
        ready: list[str] = []
        for gate in self.gates.values():
            if gate.gate_type in SOURCE_TYPES or gate.is_dff:
                indegree[gate.name] = 0
                ready.append(gate.name)
            else:
                indegree[gate.name] = len(gate.fanin)
                if not gate.fanin:
                    ready.append(gate.name)
        fanout = self.fanout_map()
        cursor = 0
        while cursor < len(ready):
            name = ready[cursor]
            cursor += 1
            order.append(name)
            for reader in fanout[name]:
                reader_gate = self.gates[reader]
                if reader_gate.is_dff:
                    continue
                # fanout_map lists a reader once per fanin occurrence, so a
                # single decrement per listing retires duplicate reads too.
                indegree[reader] -= 1
                if indegree[reader] == 0:
                    ready.append(reader)
        if len(order) != len(self.gates):
            missing = set(self.gates) - set(order)
            raise NetlistError(
                f"combinational cycle involving nets: {sorted(missing)[:8]}"
            )
        self._topo_cache = order
        return order

    def topological_index(self) -> dict[str, int]:
        """Map net -> position in :meth:`topological_order` (cached)."""
        index = self._views.get("topo_index")
        if index is None:
            index = {net: i for i, net in enumerate(self.topological_order())}
            self._views["topo_index"] = index
        return index

    def depth(self) -> int:
        """Longest combinational path length in gate levels."""
        level: dict[str, int] = {}
        best = 0
        for name in self.topological_order():
            gate = self.gates[name]
            if gate.gate_type in SOURCE_TYPES or gate.is_dff:
                level[name] = 0
            else:
                level[name] = 1 + max(level[n] for n in gate.fanin)
            best = max(best, level[name])
        return best

    def levels(self) -> dict[str, int]:
        """Map gate name -> combinational level (sources at level 0).

        Cached; invalidated on any structural edit.
        """
        if self._levels_cache is not None:
            return self._levels_cache
        level: dict[str, int] = {}
        for name in self.topological_order():
            gate = self.gates[name]
            if gate.gate_type in SOURCE_TYPES or gate.is_dff:
                level[name] = 0
            else:
                level[name] = 1 + max(level[n] for n in gate.fanin)
        self._levels_cache = level
        return level

    def stats(self) -> CircuitStats:
        histogram: dict[str, int] = {}
        for gate in self.gates.values():
            histogram[gate.gate_type.value] = (
                histogram.get(gate.gate_type.value, 0) + 1
            )
        return CircuitStats(
            name=self.name,
            num_inputs=len(self.inputs),
            num_outputs=len(self.outputs),
            num_gates=self.num_logic_gates(),
            num_dffs=len(self.dffs),
            num_ties=len(self.tie_cells),
            depth=self.depth(),
            type_histogram=histogram,
        )

    # ------------------------------------------------------------------
    # Cones and supports
    # ------------------------------------------------------------------
    def transitive_fanin(self, nets: Iterable[str]) -> set[str]:
        """All nets in the transitive fanin cone of *nets* (inclusive).

        DFF gates are included but traversal stops at them (their D input
        belongs to the previous cycle).
        """
        seen: set[str] = set()
        stack = list(nets)
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            gate = self.gate(net)
            if gate.is_dff:
                continue
            stack.extend(gate.fanin)
        return seen

    def transitive_fanout(self, nets: Iterable[str]) -> set[str]:
        """All nets in the transitive fanout cone of *nets* (inclusive)."""
        fanout = self.fanout_map()
        dffs = self.cached_view("dff_set", lambda: frozenset(self._roles().dffs))
        seen: set[str] = set()
        stack = list(nets)
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            for reader in fanout[net]:
                if reader in dffs:
                    seen.add(reader)
                    continue
                stack.append(reader)
        return seen

    def sink_table(self) -> SinkTable:
        """Every net's PO/DFF sinks, from one reverse-topological pass (cached).

        Equivalent to intersecting ``transitive_fanout([net])`` with the
        sink entries (see :class:`SinkTable`) for every net at once, with
        one bitset per net instead of one cone walk per net.  The
        :meth:`transitive_fanout` semantics are kept exactly: a net sees
        its own entries, and a DFF reader adds its own entries without
        being traversed (its Q output belongs to the next cycle).
        """
        table = self._views.get("sinks")
        if table is None:
            entries: list[tuple[str, str]] = []
            own: dict[str, int] = {}
            po_mask = 0
            for out in self.outputs:
                bit = 1 << len(entries)
                if out not in own:
                    po_mask |= bit
                own[out] = own.get(out, 0) | bit
                entries.append((out, f"PO:{out}"))
            for name in self._roles().dffs:
                d_net = self.gates[name].fanin[0]
                own[d_net] = own.get(d_net, 0) | (1 << len(entries))
                entries.append((d_net, f"DFF:{name}"))
            fanout = self.fanout_map()
            gates = self.gates
            masks: dict[str, int] = {}
            for net in reversed(self.topological_order()):
                bits = own.get(net, 0)
                for reader in fanout[net]:
                    if gates[reader].is_dff:
                        bits |= own.get(reader, 0)
                    else:
                        bits |= masks[reader]
                masks[net] = bits
            table = SinkTable(tuple(entries), masks, po_mask)
            self._views["sinks"] = table
        return table

    def output_reach_counts(self) -> dict[str, int]:
        """Map net -> number of primary outputs in its fanout cone.

        Equivalent to ``sum(1 for o in set(outputs) if o in
        transitive_fanout([net]))`` for every net at once: a popcount
        over the PO bits of :meth:`sink_table`.
        """
        table = self.sink_table()
        po_mask = table.po_mask
        return {net: (bits & po_mask).bit_count() for net, bits in table.masks.items()}

    def support(self, nets: Iterable[str]) -> list[str]:
        """Source nets (INPUTs, TIEs, DFF outputs) feeding *nets*' cones."""
        cone = self.transitive_fanin(nets)
        return [
            name
            for name in self.gates
            if name in cone
            and (self.gates[name].gate_type in SOURCE_TYPES or self.gates[name].is_dff)
        ]

    def extract_cone(self, roots: Iterable[str], name: str | None = None) -> "Circuit":
        """Extract the fanin cone of *roots* as a standalone circuit.

        Sources of the cone (INPUT, TIE, DFF-output nets) become primary
        inputs of the extracted circuit; *roots* become its outputs.
        """
        roots = list(roots)
        cone = self.transitive_fanin(roots)
        sub = Circuit(name or f"{self.name}_cone")
        for net in self.topological_order():
            if net not in cone:
                continue
            gate = self.gates[net]
            if gate.gate_type in SOURCE_TYPES or gate.is_dff:
                sub.add(net, GateType.INPUT)
            else:
                sub.add(net, gate.gate_type, gate.fanin)
        for root in roots:
            sub.add_output(root)
        return sub

    # ------------------------------------------------------------------
    # Sequential handling
    # ------------------------------------------------------------------
    def combinational_core(self) -> "Circuit":
        """Return the combinational view of a (possibly sequential) design.

        Every DFF ``q = DFF(d)`` contributes a pseudo primary input ``q``
        and a pseudo primary output ``d``.  A purely combinational design
        is returned as a plain copy.
        """
        core = Circuit(f"{self.name}_comb")
        pseudo_outputs: list[str] = []
        for gate in self.gates.values():
            if gate.is_dff:
                core.add(gate.name, GateType.INPUT)
                pseudo_outputs.append(gate.fanin[0])
            else:
                core.add_gate(gate)
        for net in self.outputs:
            core.add_output(net)
        for net in pseudo_outputs:
            if net not in core.outputs:
                core.add_output(net)
        return core

    # ------------------------------------------------------------------
    # Copies and renaming
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "Circuit":
        dup = Circuit(name or self.name)
        dup.gates = dict(self.gates)
        dup.outputs = list(self.outputs)
        return dup

    def renamed(self, rename: Callable[[str], str], name: str | None = None) -> "Circuit":
        """Return a copy with every net renamed through *rename*."""
        dup = Circuit(name or self.name)
        for gate in self.gates.values():
            dup.add(
                rename(gate.name),
                gate.gate_type,
                tuple(rename(n) for n in gate.fanin),
            )
        for net in self.outputs:
            dup.add_output(rename(net))
        return dup

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Circuit({self.name!r}, inputs={len(self.inputs)}, "
            f"outputs={len(self.outputs)}, gates={self.num_logic_gates()})"
        )
