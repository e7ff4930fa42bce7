"""Common result model shared by every attack engine.

One :class:`AttackResult` dataclass covers all engines — the greedy
proximity attack, the min-cost network-flow matcher, the learned
scorer, random guessing, the ideal attacker and the oracle-less SAT
probe — so metrics (:mod:`repro.metrics.ccr`, ``pnr``, ``hd_oer``) and
the runner's cached ``attack`` stage consume one shape.

The recovered netlist is built **when first read**: an engine records
only the netlist's name, and :attr:`AttackResult.recovered` rebuilds it
from ``(view, assignment, netlist_name)`` on first access and keeps it.
The scenario pipeline scores the post-processed netlist, so the raw
result's netlist — read by no metric (the footnote-6 CCR reads only the
assignment) — is never built.

Results are never pickled into an artifact: the cached ``attack`` stage
stores an :class:`~repro.adversary.evaluate.AttackOutcome` of plain
reports, and ``diagnostics`` holds only plain values (dicts/lists/
scalars — attack configs are stored as dicts, never as live config
objects).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netlist.circuit import Circuit
from repro.phys.split import FeolView


@dataclass
class AttackResult:
    """Outcome of an attack on one FEOL view.

    ``assignment`` maps every broken sink-stub id to the *net name* of the
    source the attacker connected it to; it must not change once the
    result exists.  ``recovered`` is the netlist the attacker would hand
    to a fab — broken pins wired per the assignment — built when first
    read and named ``netlist_name`` (``None``, for a result that carries
    no netlist, when no name is set).  ``strategy`` is the
    human-readable pipeline label (postprocessing appends to it);
    ``engine`` is the registry name of the producing engine.
    ``key_guess`` carries the key-bit vector the attacker would commit
    to, when the engine forms one.
    """

    view: FeolView
    assignment: dict[int, str] = field(default_factory=dict)
    strategy: str = "unspecified"
    engine: str = "unspecified"
    key_guess: tuple[int, ...] | None = None
    diagnostics: dict[str, object] = field(default_factory=dict)
    netlist_name: str | None = None
    _recovered: Circuit | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def recovered(self) -> Circuit | None:
        """The attacker's netlist, rebuilt on first read, then kept."""
        if self._recovered is None and self.netlist_name is not None:
            self._recovered = rebuild_netlist(
                self.view, self.assignment, self.netlist_name
            )
        return self._recovered

    def assigned_net(self, stub_id: int) -> str | None:
        return self.assignment.get(stub_id)

    def derived(
        self,
        assignment: dict[int, str] | None = None,
        strategy: str | None = None,
        netlist_name: str | None = None,
    ) -> "AttackResult":
        """A follow-up result on the same view (post-processing steps).

        Diagnostics are copied (never shared) so pipeline stages can
        annotate without mutating their input.  A new assignment gets a
        new netlist (named *netlist_name*, default ``<circuit>_recovered``);
        without one, the follow-up keeps this result's netlist, renamed
        to *netlist_name* if given.  Either is built when first read.
        """
        if assignment is not None:
            name = netlist_name or f"{self.view.circuit_name}_recovered"
        elif self.netlist_name is not None:
            name = netlist_name or self.netlist_name
        else:
            name = None  # no netlist to keep
        return AttackResult(
            self.view,
            dict(self.assignment) if assignment is None else assignment,
            strategy=strategy or self.strategy,
            engine=self.engine,
            key_guess=self.key_guess,
            diagnostics=dict(self.diagnostics),
            netlist_name=name,
        )


def rebuild_netlist(view: FeolView, assignment: dict[int, str], name: str) -> Circuit:
    """Construct the attacker's completed netlist from an assignment.

    Broken gate-input pins take the assigned driver; broken primary-output
    pads re-point the output alias.  Unassigned pins fall back to their
    own gate's first available net to keep the netlist well-formed (the
    attacker must tape out *something*).
    """
    from repro.netlist.circuit import Circuit as _Circuit

    rebuilt = _Circuit(name)
    patch: dict[tuple[str, int], str] = {}
    output_patch: dict[str, str] = {}
    for stub in view.sink_stubs:
        target = assignment.get(stub.stub_id)
        if target is None:
            # The attacker must connect every pin: fall back to the
            # geometrically nearest source stub.  Never the ground truth.
            target = _nearest_source(view, stub)
        if target is None:
            continue
        if stub.owner.startswith("PO:"):
            output_patch[stub.owner[3:]] = target
        else:
            patch[(stub.owner, stub.pin_index)] = target

    for gate in view.gates.values():
        if gate.is_input:
            rebuilt.add(gate.name, gate.gate_type)
            continue
        fanin = list(gate.fanin)
        for position in range(len(fanin)):
            key = (gate.name, position)
            if key in patch:
                fanin[position] = patch[key]
        rebuilt.add(gate.name, gate.gate_type, tuple(fanin))

    from repro.netlist.gate_types import GateType

    for net in view.outputs:
        target = output_patch.get(net, net)
        if target in rebuilt.outputs:
            # the attacker wired two pads to one net; alias through a BUF
            # so the netlist model (distinct output listings) holds.
            alias = rebuilt.fresh_name(f"{target}_poalias")
            rebuilt.add(alias, GateType.BUF, (target,))
            target = alias
        rebuilt.add_output(target)
    _break_cycles(rebuilt, set(patch))
    return rebuilt


def _break_cycles(circuit, patched_pins: set[tuple[str, int]]) -> int:
    """Tie cycle-closing *attacker-patched* pins to constant 0.

    A guessed netlist with a combinational loop is not fabricable; real
    attack tooling rejects such assignments outright.  As a safety net for
    randomized attack variants we break any residual cycle at one of the
    guessed pins (never at an FEOL-visible connection) — the functional
    damage stays on the attacker's side of the ledger.

    The gates Kahn peeling cannot remove (DFFs count as sources) are the
    members and feeders of cycles.  The pin broken next is the first
    patched pin, in gate-name order, whose gate and driver both survive
    the peel; repeat until the peel removes every gate.  One peel serves
    every break: a broken pin reads a fresh tie cell, so its gate waits
    on one fanin less and the peel continues from there.  Breaking only
    ever shrinks the set of eligible pins, so one pointer walks the
    sorted surviving gates once.  Returns the number of pins broken.
    """
    from repro.netlist.gate_types import SOURCE_TYPES, GateType

    gates = circuit.gates
    readers = {net: list(names) for net, names in circuit.fanout_map().items()}
    pending: dict[str, int] = {}  # unpeeled gate -> fanins not yet peeled
    ready: list[str] = []
    for gate in gates.values():
        if gate.gate_type in SOURCE_TYPES or gate.is_dff:
            ready.append(gate.name)
        else:
            pending[gate.name] = len(gate.fanin)

    def peel(ready: list[str]) -> None:
        while ready:
            for reader in readers[ready.pop()]:
                if reader in pending:  # DFF readers do not wait on D
                    pending[reader] -= 1
                    if pending[reader] == 0:
                        del pending[reader]
                        ready.append(reader)

    def breakable_pin(name: str) -> int | None:
        """Position of *name*'s first patched pin inside the loops."""
        if name in pending:
            for position, fin in enumerate(gates[name].fanin):
                if (name, position) in patched_pins and fin in pending:
                    return position
        return None

    peel(ready)
    order = sorted(pending)
    cursor = broken = 0
    while pending:
        while cursor < len(order) and breakable_pin(order[cursor]) is None:
            cursor += 1
        if cursor == len(order):  # a cycle through visible edges only
            raise RuntimeError("unbreakable cycle in recovered netlist")
        name = order[cursor]
        position = breakable_pin(name)
        gate = gates[name]
        tie = circuit.fresh_name(f"{name}_loopbrk")
        circuit.add(tie, GateType.TIELO)
        fanin = list(gate.fanin)
        readers[fanin[position]].remove(name)
        fanin[position] = tie
        circuit.replace_gate(gate.with_fanin(fanin))
        patched_pins.discard((name, position))
        broken += 1
        pending[name] -= 1
        if pending[name] == 0:
            del pending[name]
            peel([name])
    return broken


def _nearest_source(view: FeolView, sink) -> str | None:
    best = None
    best_dist = float("inf")
    for source in view.source_stubs:
        if source.owner == sink.owner:
            continue  # no self-loop
        dist = (source.x - sink.x) ** 2 + (source.y - sink.y) ** 2
        if dist < best_dist:
            best_dist = dist
            best = source.net
    return best
