"""Local logic simplification rules (constant-free identities)."""

from __future__ import annotations

from repro.netlist.circuit import Circuit, Gate
from repro.netlist.gate_types import GateType
from repro.netlist.transforms import substitute_net


def simplify_once(circuit: Circuit, protected: set[str] | None = None) -> int:
    """Apply one sweep of local identities in place; returns #rewrites.

    Rules: duplicate-fanin reduction (AND(a,a) -> BUF(a), XOR(a,a) ->
    TIELO, ...), degenerate single-input gates, buffer chains collapsed,
    and double-inverter removal.  *protected* gates are left untouched.
    """
    protected = protected or set()
    rewrites = 0
    for gate in list(circuit.gates.values()):
        if gate.name in protected or gate.is_input or gate.is_dff or gate.is_tie:
            continue
        replacement = _simplify_gate(circuit, gate, protected)
        if replacement is not None and replacement != gate:
            circuit.replace_gate(replacement)
            rewrites += 1
    rewrites += _collapse_wire_gates(circuit, protected)
    return rewrites


def simplify(circuit: Circuit, protected: set[str] | None = None) -> int:
    """Run :func:`simplify_once` to fixpoint; returns total rewrites."""
    total = 0
    while True:
        step = simplify_once(circuit, protected)
        if step == 0:
            return total
        total += step


def _simplify_gate(circuit: Circuit, gate: Gate, protected: set[str]) -> Gate | None:
    gate_type = gate.gate_type
    if gate_type in (GateType.AND, GateType.OR, GateType.NAND, GateType.NOR):
        unique = tuple(dict.fromkeys(gate.fanin))
        if len(unique) != len(gate.fanin):
            if len(unique) == 1:
                inverted = gate_type in (GateType.NAND, GateType.NOR)
                return Gate(
                    gate.name,
                    GateType.NOT if inverted else GateType.BUF,
                    unique,
                )
            return Gate(gate.name, gate_type, unique)
        if len(gate.fanin) == 1:
            inverted = gate_type in (GateType.NAND, GateType.NOR)
            return Gate(
                gate.name,
                GateType.NOT if inverted else GateType.BUF,
                gate.fanin,
            )
        return None
    if gate_type in (GateType.XOR, GateType.XNOR):
        # XOR(a, a) = 0; cancel fanin pairs.
        counts: dict[str, int] = {}
        for net in gate.fanin:
            counts[net] = counts.get(net, 0) + 1
        remaining = tuple(net for net, c in counts.items() if c % 2 == 1)
        if len(remaining) == len(gate.fanin):
            if len(gate.fanin) == 1:
                return Gate(
                    gate.name,
                    GateType.BUF if gate_type is GateType.XOR else GateType.NOT,
                    gate.fanin,
                )
            return None
        base = GateType.TIELO if gate_type is GateType.XOR else GateType.TIEHI
        if not remaining:
            return Gate(gate.name, base, ())
        if len(remaining) == 1:
            return Gate(
                gate.name,
                GateType.BUF if gate_type is GateType.XOR else GateType.NOT,
                remaining,
            )
        return Gate(gate.name, gate_type, remaining)
    if gate_type is GateType.NOT:
        inner = circuit.gates[gate.fanin[0]]
        if inner.gate_type is GateType.NOT and inner.name not in protected:
            # NOT(NOT(x)) -> BUF(x); the wire collapse pass then removes it.
            return Gate(gate.name, GateType.BUF, inner.fanin)
        return None
    return None


def _collapse_wire_gates(circuit: Circuit, protected: set[str]) -> int:
    """Remove BUF gates by rewiring readers directly to the source.

    A BUF is kept when it is protected, drives a primary output that would
    otherwise alias another output's net (outputs must stay distinct), or
    feeds a protected gate (don't-touch networks keep their topology).
    """
    removed = 0
    fanout = {net: set(readers) for net, readers in circuit.fanout_map().items()}
    for name in list(circuit.gates):
        gate = circuit.gates.get(name)
        if gate is None:  # removed earlier in this sweep
            continue
        if gate.gate_type is not GateType.BUF or gate.name in protected:
            continue
        source = gate.fanin[0]
        if source not in circuit.gates:  # stale reference; next sweep fixes
            continue
        if any(reader in protected for reader in fanout.get(gate.name, ())):
            continue
        if gate.name in circuit.outputs and (
            source in circuit.outputs or circuit.gates[source].is_input
        ):
            continue  # keep interface nets distinct
        # An output BUF keeps the source's name: the output alias moves.
        _remove_buffer(circuit, fanout, gate.name, source)
        removed += 1
    return removed


def _remove_buffer(
    circuit: Circuit, fanout: dict[str, set[str]], buf: str, source: str
) -> None:
    """Rewire the readers of BUF *buf* to *source* and delete it, keeping
    *fanout* (net -> readers) equal to a fresh ``fanout_map()`` instead
    of rebuilding it per removal."""
    substitute_net(circuit, buf, source, readers=fanout[buf])
    circuit.remove_gate(buf)
    readers = fanout[source]
    readers |= fanout.pop(buf)
    readers.discard(buf)
