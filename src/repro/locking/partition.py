"""Bounded-support module extraction around candidate faults.

The paper partitions the netlist "in a random but balanced manner" so that
stuck-at faults can be enumerated per module, in parallel, with bounded
ATPG effort.  We realise the same tractability bound through *fault-local
cuts*: for a candidate fault, take the set of sinks it can reach (primary
outputs and DFF data pins), then grow a backward cut from each sink
until the cut frontier has at most ``max_support`` nets and strictly
contains the fault site.  A module is the list of the circuit's own nets
between the cut and the sink; the exact failing set is computed on them
in place (``enumerate_failing_patterns(circuit, fault, module)`` in
:mod:`repro.atpg.patterns`), and the cut nets are where the restore
comparator taps.

No step here scans the whole circuit per fault: the sinks come from the
circuit's cached sink table (one bit per PO entry in output order, then
one per DFF entry in DFF order, built in a single reverse-topological
pass), cut growth reads a cached depth rank of the logic nets, and
module extraction reads the cached non-source set and topological index.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netlist.circuit import Circuit


@dataclass
class FaultModule:
    """A bounded-support module enclosing one candidate fault site."""

    cut_nets: list[str]  # module inputs, sorted: the failing set's variables
    sink_nets: list[str]  # affected output nets
    sink_aliases: dict[str, list[str]]  # sink net -> PO names / DFF q names
    gates: list[str]  # nets between the cut and the sinks, topological order


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
    drivers' fanins and greedily expand fault-tainted nets first (the
    first one the frontier set yields), then the deepest frontier net by
    ``(level, name)``; sources stop expanding.  Returns ``None`` when no
    feasible cut exists.
    """
    rank = circuit.cached_view("depth_rank", lambda: _depth_rank(circuit))
    gates = circuit.gates
    if tainted is None:
        tainted = circuit.transitive_fanout([must_contain])
    interior: set[str] = set(sinks)
    frontier: set[str] = set()
    for sink in sinks:
        frontier.update(gates[sink].fanin)
    frontier -= interior

    limit = 4 * len(gates) + 64
    guard = 0
    while True:
        guard += 1
        if guard > limit:
            return None
        # force the fault net and everything it influences into the module
        if tainted.isdisjoint(frontier):
            if len(frontier) <= max_support and must_contain in interior:
                return sorted(frontier)
            # expanding the deepest net tends to shrink the frontier
            # (reconvergence) and pulls the cut toward the inputs.
            target = max(frontier, key=rank.__getitem__)
        else:
            target = next(n for n in frontier if n in tainted)
        if rank[target] < 0:
            return None  # a source cannot be expanded
        frontier.discard(target)
        interior.add(target)
        for net in gates[target].fanin:
            if net not in interior:
                frontier.add(net)
        if len(frontier) > 3 * max_support:
            return None  # hopeless blow-up


def _depth_rank(circuit: Circuit) -> dict[str, int]:
    """Each logic net's position in ``(level, name)`` order; -1 for sources."""
    levels = circuit.levels()
    ordered = sorted(circuit.logic_nets(), key=lambda n: (levels[n], n))
    rank = dict.fromkeys(circuit.gates, -1)
    rank.update((net, position) for position, net in enumerate(ordered))
    return rank


def extract_sink_modules(
    circuit: Circuit,
    fault_net: str,
    max_support: int,
    max_sinks: int = 24,
) -> list[FaultModule] | None:
    """Per-sink bounded modules for a fault at *fault_net*.

    Every affected sink is enclosed in its *own* cut of at most
    *max_support* nets, and the restore unit corrects each sink
    independently.  Returns ``None`` when any sink is not enclosable (all
    affected sinks must be correctable for the lock to be exact) or when
    the fault observes more than *max_sinks* sinks.
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
        gates = _gates_between(circuit, cut, sink)
        if gates is None or fault_net not in gates:
            return None
        modules.append(FaultModule(cut, [sink], {sink: aliases[sink]}, gates))
    return modules


def _gates_between(circuit: Circuit, cut: list[str], sink: str) -> list[str] | None:
    """Every net on a path cut -> *sink*, in topological order.

    A backward walk from the sink stopping at cut nets; ``None`` when it
    reaches a source, i.e. the cut does not separate the sink.
    """
    logic = circuit.logic_nets()
    gates = circuit.gates
    needed: list[str] = []
    seen: set[str] = set(cut)
    stack = [sink]
    while stack:
        net = stack.pop()
        if net in seen:
            continue
        seen.add(net)
        if net not in logic:
            return None  # a source leaked past the cut: infeasible
        needed.append(net)
        stack.extend(n for n in gates[net].fanin if n not in seen)
    needed.sort(key=circuit.topological_index().__getitem__)
    return needed
