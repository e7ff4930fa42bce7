"""Netlist-level structural transforms shared across the project."""

from __future__ import annotations

from typing import Iterable

from repro.netlist.circuit import Circuit, NetlistError
from repro.netlist.gate_types import GateType


def substitute_net(
    circuit: Circuit,
    old: str,
    new: str,
    readers: Iterable[str] | None = None,
) -> int:
    """Re-point every reader of net *old* to net *new*; returns #edits.

    Primary-output listings of *old* are re-pointed too.  The driver of
    *old* is left in place (remove it separately if it becomes dead).
    A caller that already knows the gates reading *old* passes them as
    *readers* (a superset will do) to skip the scan over every gate;
    gates are replaced in place, so the gate order is the same either
    way.
    """
    if old == new:
        return 0
    edits = 0
    gates = circuit.gates
    if readers is None:
        scanned = list(gates.values())
    else:
        scanned = [gates[name] for name in readers if name in gates]
    for gate in scanned:
        if old in gate.fanin:
            circuit.replace_gate(
                gate.with_fanin(new if n == old else n for n in gate.fanin)
            )
            edits += 1
    for _ in range(circuit.outputs.count(old)):
        circuit.rename_output(old, new)
        edits += 1
    return edits


def insert_buffer(circuit: Circuit, net: str, buffer_name: str | None = None) -> str:
    """Insert a BUF after *net*, re-pointing all readers; returns its name."""
    name = buffer_name or circuit.fresh_name(f"{net}_buf")
    substitute_net(circuit, net, name)
    circuit.add(name, GateType.BUF, (net,))
    return name


def insert_on_net(
    circuit: Circuit,
    net: str,
    gate_type: GateType,
    side_inputs: tuple[str, ...] = (),
    name: str | None = None,
) -> str:
    """Break net *net* and insert a gate of *gate_type* in its path.

    The inserted gate reads ``(net, *side_inputs)`` and all previous readers
    of *net* now read the inserted gate.  This is the standard key-gate
    insertion primitive (e.g. an XOR key-gate with a key net as side input).
    Returns the new gate's name.
    """
    gate_name = name or circuit.fresh_name(f"{net}_kg")
    substitute_net(circuit, net, gate_name)
    circuit.add(gate_name, gate_type, (net,) + side_inputs)
    return gate_name


def sweep_dead_logic(circuit: Circuit, keep: Iterable[str] = ()) -> int:
    """Remove gates whose output reaches no primary output or DFF.

    Primary inputs are never removed (the interface is part of the spec),
    and nets listed in *keep* (don't-touch cells) anchor their cones.
    Returns the number of gates removed.
    """
    live: set[str] = set()
    stack = list(circuit.outputs)
    stack.extend(net for net in keep if net in circuit.gates)
    for gate in circuit.gates.values():
        if gate.is_dff:
            stack.append(gate.name)
    while stack:
        net = stack.pop()
        if net in live:
            continue
        live.add(net)
        stack.extend(circuit.gates[net].fanin)
    removed = 0
    for name in list(circuit.gates):
        gate = circuit.gates[name]
        if name not in live and not gate.is_input:
            circuit.remove_gate(name)
            removed += 1
    return removed


def merge_circuits(base: Circuit, addition: Circuit, prefix: str) -> dict[str, str]:
    """Graft *addition* into *base*, prefixing non-shared net names.

    Inputs of *addition* whose names exist in *base* are connected to those
    nets; other inputs raise (the caller must pre-wire them).  Returns the
    rename map applied to *addition*'s internal nets.
    """
    rename: dict[str, str] = {}
    for gate in addition.gates.values():
        if gate.is_input:
            if gate.name not in base.gates:
                raise NetlistError(
                    f"addition input {gate.name!r} has no counterpart in base"
                )
            rename[gate.name] = gate.name
        else:
            rename[gate.name] = base.fresh_name(f"{prefix}{gate.name}")
    for net in addition.topological_order():
        gate = addition.gates[net]
        if gate.is_input:
            continue
        base.add(
            rename[gate.name],
            gate.gate_type,
            tuple(rename[n] for n in gate.fanin),
        )
    return rename


def relabel_instances(circuit: Circuit, prefix: str = "n") -> Circuit:
    """Return a copy with anonymised, densely numbered net names.

    Primary inputs and outputs keep their names (the interface is public);
    internal nets are renamed ``<prefix)0..`` in topological order.  Used by
    the PNR metric and by attack evaluation to prevent the attacker from
    trivially matching nets by name.
    """
    keep = set(circuit.inputs) | set(circuit.outputs)
    mapping: dict[str, str] = {}
    counter = 0
    for net in circuit.topological_order():
        if net in keep:
            mapping[net] = net
        else:
            mapping[net] = f"{prefix}{counter}"
            counter += 1
    return circuit.renamed(lambda n: mapping[n], name=circuit.name)


def count_area(circuit: Circuit, library=None) -> float:
    """Total standard-cell area of *circuit* in um^2."""
    from repro.netlist.cell_library import NANGATE45

    lib = library or NANGATE45
    total = 0.0
    for gate in circuit.gates.values():
        if gate.is_input:
            continue
        total += lib.gate_area(gate.gate_type, len(gate.fanin))
    return total
