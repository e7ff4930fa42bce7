"""The paper's cost model for fault selection (Sec. III-A).

    cost = min over faults of { cost_fi(f) + cost_rest(f) }
           subject to |K| = k and K drawn uniformly

``cost_fi`` is the cell area of the fault-injected, re-synthesized logic;
``cost_rest`` the area of the keyed restore circuitry.  Relative to the
unprotected baseline, a fault is *profitable* when the area it removes
exceeds the restore area it adds.  The flow ranks faults by cost per key
bit so that the fixed key budget (128 bits) is spent where it buys the
most area back.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.atpg.patterns import FailingPatterns
from repro.netlist.cell_library import NANGATE45, CellLibrary
from repro.netlist.gate_types import GateType


@dataclass(frozen=True)
class FaultCost:
    """Area economics of one candidate fault."""

    removed_area: float  # area reclaimed by injecting + resynthesizing
    restore_area: float  # area of comparators, TIEs, OR/XOR correction
    key_bits: int

    @property
    def net_cost(self) -> float:
        """Positive = the fault adds area; negative = it saves area."""
        return self.restore_area - self.removed_area

    @property
    def cost_per_key_bit(self) -> float:
        if self.key_bits == 0:
            return float("inf")
        return self.net_cost / self.key_bits


def cascade_removed_area(
    circuit,
    net: str,
    value: int,
    library: CellLibrary | None = None,
) -> float:
    """Area reclaimed by tying *net* to *value* and re-synthesizing.

    Counts (a) the maximum fanout-free cone of *net* (dead once the net is
    a constant), and (b) every downstream gate folded to a constant by the
    cascade (a controlling constant input collapses AND/NAND/OR/NOR;
    NOT/BUF forward the constant; XOR absorbs it).  This tracks what
    :func:`repro.synth.resynth.resynthesize` actually reclaims far better
    than the MFFC alone, because constants cascade across fanout.

    The cascade is event-driven: only readers of a net that just became
    constant are evaluated, popped from a heap keyed by topological
    index.  A gate can fold only once a fanin is constant, and every pop
    comes after its constant fanins, so ``constant`` gains the same
    gates in the same topological order as a sweep over the whole fanout
    cone, and the area sums add in the same order (bit-identical floats).
    Gate areas come from a per-circuit table, built once per library.
    """
    lib = library or NANGATE45
    fanout = circuit.fanout_map()
    logic = circuit.logic_nets()
    outputs = set(circuit.outputs)
    gate_area = circuit.cached_view(
        ("gate_areas", lib), lambda: _gate_areas(circuit, lib)
    ).__getitem__

    # (a) fanout-free cone of the tied net
    cone: set[str] = {net}
    stack = list(circuit.gates[net].fanin)
    while stack:
        candidate = stack.pop()
        if candidate in cone:
            continue
        if candidate not in logic or candidate in outputs:
            continue
        readers = fanout[candidate]
        if readers and all(r in cone for r in readers):
            cone.add(candidate)
            stack.extend(circuit.gates[candidate].fanin)

    # (b) constant cascade through the fanout, in topological order
    constant: dict[str, int] = {net: value}
    index = circuit.topological_index()
    queued: set[str] = set()
    heap: list[tuple[int, str]] = []

    def schedule(source: str) -> None:
        for reader in fanout[source]:
            if reader in logic and reader not in queued:
                queued.add(reader)
                heapq.heappush(heap, (index[reader], reader))

    schedule(net)
    while heap:
        _, name = heapq.heappop(heap)
        gate = circuit.gates[name]
        folded = _fold_value(gate.gate_type, [constant.get(n) for n in gate.fanin])
        if folded is not None:
            constant[name] = folded
            schedule(name)

    area = gate_area(net)
    area += sum(gate_area(n) for n in cone if n != net)
    area += sum(
        gate_area(n)
        for n in constant
        if n != net and n not in cone
    )
    return area


def _gate_areas(circuit, lib: CellLibrary) -> dict[str, float]:
    """Each gate's mapped cell area under *lib*."""
    return {
        name: lib.gate_area(gate.gate_type, len(gate.fanin))
        for name, gate in circuit.gates.items()
    }


def _fold_value(gate_type: GateType, values: list[int | None]) -> int | None:
    """Constant output of a gate given partially constant inputs, if any."""
    if gate_type in (GateType.AND, GateType.NAND):
        if any(v == 0 for v in values):
            return 0 if gate_type is GateType.AND else 1
        if all(v == 1 for v in values):
            return 1 if gate_type is GateType.AND else 0
        return None
    if gate_type in (GateType.OR, GateType.NOR):
        if any(v == 1 for v in values):
            return 1 if gate_type is GateType.OR else 0
        if all(v == 0 for v in values):
            return 0 if gate_type is GateType.OR else 1
        return None
    if gate_type is GateType.NOT:
        return None if values[0] is None else 1 - values[0]
    if gate_type is GateType.BUF:
        return values[0]
    if gate_type in (GateType.XOR, GateType.XNOR):
        if any(v is None for v in values):
            return None
        parity = 0
        for v in values:
            parity ^= v
        return parity if gate_type is GateType.XOR else 1 - parity
    return None


def restore_area_estimate(
    patterns: FailingPatterns, library: CellLibrary | None = None
) -> float:
    """Cell area of the restore unit implied by *patterns* (no insertion).

    Mirrors :func:`repro.locking.restore.insert_restore` gate-for-gate:
    per unique cube, one TIE + one XOR/XNOR match gate per care literal
    and an AND of the matches; per affected output, an OR of its cubes and
    the correcting XOR.
    """
    lib = library or NANGATE45
    area = 0.0
    unique = patterns.unique_cubes()
    for cube in unique:
        care = cube.care_count()
        if care == 0:
            area += lib.gate_area(GateType.TIEHI, 0)
            continue
        area += care * (
            lib.gate_area(GateType.TIEHI, 0)
            + lib.gate_area(GateType.XNOR, 2)
        )
        if care > 1:
            area += lib.gate_area(GateType.AND, care)
    for cover in patterns.covers_by_output.values():
        if not cover:
            continue
        if len(cover) > 1:
            area += lib.gate_area(GateType.OR, len(cover))
        area += lib.gate_area(GateType.XOR, 2)
    return area
