"""Common result model shared by every attack engine.

One :class:`AttackResult` dataclass covers all engines — the greedy
proximity attack, the min-cost network-flow matcher, the learned
scorer, random guessing, the ideal attacker and the oracle-less SAT
probe — so metrics (:mod:`repro.metrics.ccr`, ``pnr``, ``hd_oer``) and
the runner's cached ``attack`` stage consume one shape.

The attacker's netlist is scored without building a :class:`Circuit`.
Each FEOL view memoises a table of index arrays (:func:`view_table`);
an assignment patches a copy of its fanin ids, aliases repeated output
targets through ``_poalias`` BUFs and breaks loops on ints
(:func:`recovered_machine`), and the :class:`RecoveredMachine` compiles
straight into the program HD/OER sweeps.  A :class:`Circuit` is
rendered from it only when read (:attr:`AttackResult.recovered`,
:func:`rebuild_netlist`).  Engines record only the
netlist's name; the machine is built on first read and kept.

Results are never pickled into an artifact: the cached ``attack`` stage
stores an :class:`~repro.adversary.evaluate.AttackOutcome` of plain
reports, and ``diagnostics`` holds only plain values (dicts/lists/
scalars — attack configs are stored as dicts, never as live config
objects).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.netlist.circuit import Circuit, Gate
from repro.netlist.gate_types import GateType
from repro.phys.geometry import _cache_token
from repro.phys.split import FeolView
from repro.sim.compiled import (
    KIND_GATE,
    KIND_INPUT,
    KIND_TIELO,
    OP_COPY,
    CompiledCircuit,
    NetTable,
    net_table,
)


@dataclass
class AttackResult:
    """Outcome of an attack on one FEOL view.

    ``assignment`` maps every broken sink-stub id to the *net name* of the
    source the attacker connected it to; it must not change once the
    result exists.  ``machine`` (what HD/OER scores) and ``recovered``
    (the same netlist as a :class:`Circuit`) are what the attacker would
    hand to a fab — broken pins wired per the assignment — built when
    first read and named ``netlist_name`` (``None``, for a result that
    carries no netlist, when no name is set).  ``strategy`` is the
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
    _machine: RecoveredMachine | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _recovered: Circuit | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def machine(self) -> RecoveredMachine | None:
        """The attacker's netlist as index arrays, built on first read."""
        if self._machine is None and self.netlist_name is not None:
            self._machine = recovered_machine(
                self.view, self.assignment, self.netlist_name
            )
        return self._machine

    @property
    def recovered(self) -> Circuit | None:
        """The attacker's netlist, rendered on first read, then kept."""
        if self._recovered is None and self.machine is not None:
            self._recovered = self.machine.circuit(self.netlist_name)
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
    pads re-point the output alias.  Unassigned pins fall back to the
    geometrically nearest source stub to keep the netlist well-formed
    (the attacker must tape out *something*).
    """
    return recovered_machine(view, assignment, name).circuit()


class _ViewTable:
    """A view's gates as a :class:`NetTable` (in ``view.gates`` order).

    A pin's *slot* is its flat position in the padded fanin matrix.
    ``sinks`` holds ``(stub index, stub id, slot)`` per sink stub that
    patches anything (slot ``~k`` re-points output *k*); ``pins`` are
    the combinational pins' slots.
    """

    def __init__(self, view: FeolView) -> None:
        self.gates: list[Gate] = list(view.gates.values())
        self.row = {name: i for i, name in enumerate(view.gates)}
        self.table = net_table(self.gates, self.row)
        self.width = width = self.table.fanin.shape[1]
        arity = self.table.arity.tolist()
        is_gate = self.table.kind == KIND_GATE
        self.pins = np.flatnonzero(
            (np.arange(width) < self.table.arity[:, None]) & is_gate[:, None]
        )
        self.readers = (self.pins // width).tolist()
        self.waits = np.where(is_gate, self.table.arity, 0).tolist()
        self.rank = [0] * len(arity)  # row -> position in name order
        by_name = sorted(range(len(arity)), key=self.table.names.__getitem__)
        for position, row in enumerate(by_name):
            self.rank[row] = position
        self.outputs = [self.row[net] for net in view.outputs]
        output_of = {net: k for k, net in enumerate(view.outputs)}
        self.sinks: list[tuple[int, int, int]] = []
        for position, stub in enumerate(view.sink_stubs):
            if stub.owner.startswith("PO:"):
                k = output_of.get(stub.owner[3:])
                slot = None if k is None else ~k
            else:
                gate = self.row.get(stub.owner)
                ok = gate is not None and 0 <= stub.pin_index < arity[gate]
                slot = gate * width + stub.pin_index if ok else None
            if slot is not None:
                self.sinks.append((position, stub.stub_id, slot))
        self.nearest: dict[int, str | None] = {}  # stub index -> fallback


def view_table(view: FeolView) -> _ViewTable:
    """*view*'s memoised table; reassigning its stubs, gates or outputs
    (as the defenses do) rebuilds it, and pickles drop it."""
    netlist = (getattr(view, "_netlist_version", 0), len(view.gates), len(view.outputs))
    token = (_cache_token(view), netlist)
    cached = getattr(view, "_recovery_table", None)
    if cached is None or cached[0] != token:
        cached = view._recovery_table = (token, _ViewTable(view))
    return cached[1]


@dataclass
class RecoveredMachine:
    """The attacker's netlist: the view's gates, then ``_poalias`` BUFs,
    then ``_loopbrk`` TIELOs, each row levelled.  Like ``inputs``, the
    ``outputs`` rows are lowered as :meth:`Circuit.combinational_core`
    lowers DFFs; the rendered circuit keeps ``primary_outputs``."""

    name: str
    gates: list[Gate]  # the view's gates (rendering keeps their types)
    table: NetTable
    level: np.ndarray
    outputs: list[int]
    primary_outputs: list[int]

    @property
    def inputs(self) -> list[str]:
        """Primary inputs after lowering (DFFs included), in row order."""
        rows = np.flatnonzero(self.table.kind == KIND_INPUT).tolist()
        return [self.table.names[i] for i in rows]

    def compile(self) -> CompiledCircuit:
        """The simulation program, with no :class:`Circuit` built."""
        return CompiledCircuit.from_table(
            self.name, self.table, self.level, self.outputs
        )

    def circuit(self, name: str | None = None) -> Circuit:
        """Render the machine as the :class:`Circuit` the attacker tapes out."""
        names = self.table.names
        rows = self.table.fanin.tolist()
        gates = [
            Gate(g.name, g.gate_type, tuple(names[j] for j in row[: len(g.fanin)]))
            for g, row in zip(self.gates, rows)
        ]
        for i in range(len(self.gates), len(names)):
            if self.table.kind[i] == KIND_TIELO:
                gates.append(Gate(names[i], GateType.TIELO))
            else:
                gates.append(Gate(names[i], GateType.BUF, (names[rows[i][0]],)))
        outputs = [names[i] for i in self.primary_outputs]
        return Circuit(name or self.name, gates, outputs)


def recovered_machine(
    view: FeolView, assignment: dict[int, str], name: str
) -> RecoveredMachine:
    """Patch, alias and loop-break *view*'s table per *assignment*."""
    vt = view_table(view)
    names = vt.table.names
    patch: dict[int, str] = {}
    for position, stub_id, slot in vt.sinks:
        target = assignment.get(stub_id)
        if target is None:
            # The attacker must connect every pin: fall back to the
            # geometrically nearest source stub.  Never the ground truth.
            if position not in vt.nearest:
                stub = view.sink_stubs[position]
                vt.nearest[position] = _nearest_source(view, stub)
            target = vt.nearest[position]
            if target is None:
                continue
        patch[slot] = target
    slots = np.fromiter(patch, dtype=np.intp, count=len(patch))
    targets = np.array([vt.row[net] for net in patch.values()], dtype=np.intp)
    pins = slots >= 0
    fanin = vt.table.fanin.ravel().copy()
    fanin[slots[pins]] = targets[pins]
    outputs = list(vt.outputs)
    for slot, target in zip(slots[~pins].tolist(), targets[~pins].tolist()):
        outputs[~slot] = target

    added: dict[str, int] = {}  # added row names -> row ids

    def fresh(prefix: str) -> int:
        """Add a row named like :meth:`Circuit.fresh_name`; its id."""
        candidate, suffix = prefix, 0
        while candidate in vt.row or candidate in added:
            candidate, suffix = f"{prefix}_{suffix}", suffix + 1
        added[candidate] = len(names) + len(added)
        return added[candidate]

    aliased: list[int] = []  # each alias BUF's target
    taken: set[int] = set()
    for k, target in enumerate(outputs):
        if target in taken:
            # The attacker wired two pads to one net; alias through a BUF
            # so the netlist model (distinct output listings) holds.
            aliased.append(target)
            outputs[k] = fresh(f"{names[target]}_poalias")
        taken.add(outputs[k])
    level, ties = _break_loops(vt, fanin, set(slots[pins].tolist()), aliased, fresh)

    lowered = list(outputs)  # then each new DFF data net
    for data in fanin[[i * vt.width for i, g in enumerate(vt.gates) if g.is_dff]]:
        if data not in taken:
            taken.add(data)
            lowered.append(int(data))
    rows = np.zeros((len(added), vt.width), dtype=np.intp)
    rows[: len(aliased), 0] = aliased
    kinds = np.array([KIND_GATE] * len(aliased) + [KIND_TIELO] * ties, np.intp)
    return RecoveredMachine(
        name=name,
        gates=vt.gates,
        table=NetTable(
            names + list(added),
            np.concatenate((vt.table.kind, kinds)),
            np.concatenate((vt.table.op, np.full(len(added), OP_COPY, np.intp))),
            np.concatenate((vt.table.invert, np.zeros(len(added), np.intp))),
            np.concatenate((vt.table.arity, np.array(kinds == KIND_GATE, np.intp))),
            np.concatenate((fanin.reshape(-1, vt.width), rows)),
        ),
        level=np.array(level, dtype=np.intp),
        outputs=lowered,
        primary_outputs=outputs,
    )


def _break_loops(
    vt: _ViewTable, fanin: np.ndarray, patched: set[int], aliased: list[int], fresh
) -> tuple[list[int], int]:
    """Tie cycle-closing *attacker-patched* pins to constant 0, in place.

    A guessed netlist with a loop is not fabricable, so any residual
    cycle is broken at a guessed pin (never at an FEOL-visible one).
    The rows a Kahn peel from the sources (DFFs included) cannot remove
    are the members and feeders of cycles; the pin broken next is the
    first patched pin, in gate-*name* order, whose gate and driver both
    survive the peel.  The pin then reads a fresh ``<gate>_loopbrk``
    TIELO row and the peel continues.  Eligible pins only ever shrink,
    so one pointer walks the sorted survivors once.  The peel also
    levels every row.  Returns ``(levels, number of ties)``.
    """
    width, first_alias = vt.width, len(vt.gates)
    rows = first_alias + len(aliased)
    fanout: list[list[int]] = [[] for _ in range(rows)]  # readers per row
    for driver, reader in zip(fanin[vt.pins].tolist(), vt.readers):
        fanout[driver].append(reader)
    for alias, target in enumerate(aliased, first_alias):
        fanout[target].append(alias)
    waits = vt.waits + [1] * len(aliased)  # unpeeled fanins per row
    level = [0] * rows
    remaining = rows - waits.count(0)

    def peel(ready: list[int]) -> None:
        nonlocal remaining
        while ready:
            net = ready.pop()
            above = level[net] + 1
            for reader in fanout[net]:
                if level[reader] < above:
                    level[reader] = above
                waits[reader] -= 1
                if not waits[reader]:
                    remaining -= 1
                    ready.append(reader)

    peel([i for i in range(first_alias) if not waits[i]])
    if not remaining:
        return level, 0
    arity = vt.table.arity.tolist()
    drivers_of = fanin.tolist()
    by_name = sorted(
        (g for g in range(first_alias) if waits[g]), key=vt.rank.__getitem__
    )
    broken: list[int] = []
    cursor = 0
    while remaining:
        slot = None
        while slot is None:
            if cursor == len(by_name):  # a cycle through visible edges only
                raise RuntimeError("unbreakable cycle in recovered netlist")
            gate = by_name[cursor]
            first = gate * width
            for pin in range(first, first + arity[gate]) if waits[gate] else ():
                if pin in patched and waits[drivers_of[pin]]:
                    slot = pin
                    break
            else:
                cursor += 1
        fanout[drivers_of[slot]].remove(gate)
        drivers_of[slot] = fresh(f"{vt.table.names[gate]}_loopbrk")
        level.append(0)
        waits.append(0)
        patched.discard(slot)
        broken.append(slot)
        level[gate] = max(level[gate], 1)
        waits[gate] -= 1
        if not waits[gate]:
            remaining -= 1
            peel([gate])
    fanin[broken] = [drivers_of[slot] for slot in broken]
    return level, len(broken)


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
