"""Bounded-support module extraction around candidate faults.

The paper partitions the netlist "in a random but balanced manner" so that
stuck-at faults can be enumerated per module, in parallel, with bounded
ATPG effort.  We realise the same tractability bound through *fault-local
cuts*: for a candidate fault, take the set of sinks it can reach (primary
outputs and DFF data pins), then grow a backward cut from those sinks
until the cut frontier has at most ``max_support`` nets and strictly
contains the fault site.  The module between the cut and the sinks is the
unit on which the exact failing set is computed (see
:mod:`repro.atpg.patterns`), and the cut nets are where the restore
comparator taps.

No step here scans the whole circuit per fault: the sinks come from the
circuit's cached sink table (one bit per PO entry in output order, then
one per DFF entry in DFF order, built in a single reverse-topological
pass), and cut growth and module extraction read the cached non-source
set and topological index.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType


@dataclass
class FaultModule:
    """A bounded-support module enclosing one candidate fault site."""

    module: Circuit  # standalone circuit: INPUTs = cut nets, outputs = sinks
    cut_nets: list[str]  # names in the full circuit (== module input names)
    sink_nets: list[str]  # affected output nets (full-circuit names)
    sink_aliases: dict[str, list[str]]  # sink net -> PO names / DFF q names


def affected_sinks(circuit: Circuit, net: str) -> tuple[list[str], dict[str, list[str]]]:
    """Sinks observed by a fault at *net*: PO nets and DFF data nets.

    Returns ``(sink_nets, aliases)`` where aliases maps a sink net to the
    primary outputs listing it and the DFFs reading it as data.  Decodes
    the net's bits of :meth:`Circuit.sink_table` in ascending order, so
    sinks and aliases come out in the order a per-net walk would give:
    every PO in output order, then every DFF in DFF order.
    """
    table = circuit.sink_table()
    entries = table.entries
    bits = table.masks[net]
    aliases: dict[str, list[str]] = {}
    while bits:
        low = bits & -bits
        sink, alias = entries[low.bit_length() - 1]
        aliases.setdefault(sink, []).append(alias)
        bits ^= low
    return list(aliases), aliases


def grow_cut(
    circuit: Circuit,
    sinks: list[str],
    must_contain: str,
    max_support: int,
    tainted: set[str] | None = None,
) -> list[str] | None:
    """Find a cut of <= *max_support* nets separating *sinks* from inputs.

    The returned cut strictly excludes *must_contain* (the fault net stays
    interior) and never uses a net from the fault's fanout cone: a cut net
    is treated as a fault-independent module input, so it must not itself
    depend on the fault.  Strategy: start with the frontier at the sink
    drivers' fanins and greedily expand fault-tainted nets first, then the
    deepest frontier net; sources stop expanding.  Returns ``None`` when
    no feasible cut exists.
    """
    levels = circuit.levels()
    logic = circuit.logic_nets()
    if tainted is None:
        tainted = circuit.transitive_fanout([must_contain])
    interior: set[str] = set(sinks)
    frontier: set[str] = set()
    for sink in sinks:
        frontier.update(circuit.gates[sink].fanin)
    frontier -= interior

    guard = 0
    while True:
        guard += 1
        if guard > 4 * len(circuit.gates) + 64:
            return None
        # force the fault net and everything it influences into the module
        forced = [n for n in frontier if n in tainted]
        if forced:
            target = forced[0]
        elif len(frontier) <= max_support and must_contain in interior:
            return sorted(frontier)
        else:
            candidates = [n for n in frontier if n in logic]
            if not candidates:
                return None
            # expanding the deepest net tends to shrink the frontier
            # (reconvergence) and pulls the cut toward the inputs.
            target = max(candidates, key=lambda n: (levels[n], n))
        if target not in logic:
            return None
        gate = circuit.gates[target]
        frontier.discard(target)
        interior.add(target)
        for net in gate.fanin:
            if net not in interior:
                frontier.add(net)
        if len(frontier) > 3 * max_support:
            return None  # hopeless blow-up


def extract_fault_module(
    circuit: Circuit,
    fault_net: str,
    max_support: int,
    max_sinks: int = 12,
) -> FaultModule | None:
    """Build one bounded module enclosing *fault_net* and all its sinks.

    ``None`` means the fault is not locally enclosable within the support
    and sink budgets — the locking flow simply skips such candidates, the
    same way the paper's cost model rejects faults whose restore logic
    would be too expensive.
    """
    sinks, aliases = affected_sinks(circuit, fault_net)
    if not sinks or len(sinks) > max_sinks:
        return None
    cut = grow_cut(circuit, sinks, fault_net, max_support)
    if cut is None or fault_net in cut:
        return None
    module = _extract_between(circuit, cut, sinks)
    if module is None or fault_net not in module.gates:
        return None
    return FaultModule(module, cut, sinks, aliases)


def extract_sink_modules(
    circuit: Circuit,
    fault_net: str,
    max_support: int,
    max_sinks: int = 24,
) -> list[FaultModule] | None:
    """Per-sink bounded modules for a fault at *fault_net*.

    Stronger than :func:`extract_fault_module` for faults whose effect
    fans out to many sinks: every affected sink is enclosed in its *own*
    cut of at most *max_support* nets, and the restore unit corrects each
    sink independently.  Returns ``None`` when any sink is not enclosable
    (all affected sinks must be correctable for the lock to be exact) or
    when the fault observes more than *max_sinks* sinks.
    """
    sinks, aliases = affected_sinks(circuit, fault_net)
    if not sinks or len(sinks) > max_sinks:
        return None
    tainted = circuit.transitive_fanout([fault_net])
    modules: list[FaultModule] = []
    for sink in sinks:
        cut = grow_cut(circuit, [sink], fault_net, max_support, tainted=tainted)
        if cut is None or fault_net in cut:
            return None
        module = _extract_between(circuit, cut, [sink])
        if module is None or fault_net not in module.gates:
            return None
        modules.append(
            FaultModule(module, cut, [sink], {sink: aliases[sink]})
        )
    return modules


def _extract_between(
    circuit: Circuit, cut: list[str], sinks: list[str]
) -> Circuit | None:
    """Standalone circuit of the logic between *cut* and *sinks*."""
    logic = circuit.logic_nets()
    module = Circuit("fault_module")
    for net in cut:
        module.add(net, GateType.INPUT)
    # include every gate on a path cut -> sinks: backward walk from sinks
    # stopping at cut nets.
    needed: list[str] = []
    seen: set[str] = set(cut)
    stack = list(sinks)
    while stack:
        net = stack.pop()
        if net in seen:
            continue
        seen.add(net)
        if net not in logic:
            return None  # a source leaked past the cut: infeasible
        needed.append(net)
        stack.extend(n for n in circuit.gates[net].fanin if n not in seen)
    needed.sort(key=circuit.topological_index().__getitem__)
    for net in needed:
        module.add_gate(circuit.gates[net])
    for sink in sinks:
        module.add_output(sink)
    return module
