"""The five FEOL hint classes used by the proximity attack.

These mirror the hints enumerated in the paper's proof outline (taken from
Wang et al., TVLSI'18): (1) physical proximity, (2) FEOL routing
direction of the dangling wires, (3) driver load constraints, (4) absence
of combinational loops, (5) timing constraints.  Hints 1 and 2 are one
composite score over whole blocks of pairs (:mod:`repro.phys.geometry`);
the helpers here filter candidate source-sink pairs by hints 3-5, and the
attack composes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netlist.circuit import Circuit
from repro.phys.split import FeolView, SinkStub, SourceStub


@dataclass
class HintContext:
    """Precomputed structure shared by all hint evaluations."""

    view: FeolView
    levels: dict[str, int]
    suffix_depth: dict[str, int]
    max_level: int
    load_limit: int


def build_context(
    view: FeolView, load_limit: int = 5, skeleton: Circuit | None = None
) -> HintContext:
    """Precompute level estimates over the FEOL-visible structure.

    Broken pins contribute no edges, so levels are lower bounds — exactly
    what an attacker can compute from the FEOL.  *skeleton* is the view's
    :func:`_feol_skeleton` when the caller already built it.
    """
    if skeleton is None:
        skeleton = _feol_skeleton(view)
    levels = skeleton.levels()
    fanout = skeleton.fanout_map()
    suffix: dict[str, int] = {}
    for net in reversed(skeleton.topological_order()):
        readers = [r for r in fanout[net] if not skeleton.gates[r].is_dff]
        suffix[net] = 1 + max((suffix[r] for r in readers), default=0)
    max_level = max(levels.values(), default=0)
    return HintContext(view, levels, suffix, max_level, load_limit)


def _feol_skeleton(view: FeolView) -> Circuit:
    """The FEOL-visible netlist: broken pins dropped from fanins.

    Dropping pins can change gate arities; the skeleton is only used for
    topology estimates, so gates degrade to buffers where needed.
    """
    from repro.netlist.gate_types import GateType

    broken: dict[str, set[int]] = {}
    for stub in view.sink_stubs:
        if not stub.owner.startswith("PO:"):
            broken.setdefault(stub.owner, set()).add(stub.pin_index)
    skeleton = Circuit(f"{view.circuit_name}_feol")
    for gate in view.gates.values():
        if gate.is_input:
            skeleton.add(gate.name, GateType.INPUT)
            continue
        if gate.is_tie:
            skeleton.add(gate.name, gate.gate_type)
            continue
        keep = [
            net
            for position, net in enumerate(gate.fanin)
            if position not in broken.get(gate.name, set())
        ]
        if gate.is_dff:
            if keep:
                skeleton.add(gate.name, gate.gate_type, tuple(keep[:1]))
            else:
                skeleton.add(gate.name, GateType.INPUT)
            continue
        if keep:
            gate_type = gate.gate_type if len(keep) > 1 else _unary_of(gate.gate_type)
            skeleton.add(gate.name, gate_type, tuple(keep))
        else:
            skeleton.add(gate.name, GateType.TIELO)  # fully dangling gate
    return skeleton


def _unary_of(gate_type):
    from repro.netlist.gate_types import GateType, inversion_parity

    return GateType.NOT if inversion_parity(gate_type) else GateType.BUF


# ----------------------------------------------------------------------
# Hint 3: load constraints — not applicable to TIE cells
# ----------------------------------------------------------------------
def load_allows(
    context: HintContext, source: SourceStub, current_load: int
) -> bool:
    """Drivers accept a bounded number of extra sinks; TIEs are unbounded.

    "Load capacitance constraints are not applicable to TIE cells, since
    they are not actual drivers."
    """
    if source.is_tie:
        return True
    return current_load < context.load_limit


# ----------------------------------------------------------------------
# Hint 4: combinational-loop avoidance — vacuous for TIE cells
# ----------------------------------------------------------------------
@dataclass
class Reachability:
    """Gate -> gates known reachable from it, as a packed bit matrix.

    ``index`` numbers the FEOL skeleton's gates.  Bit ``j`` of row ``i``
    of ``bits`` (``uint64`` words, bit ``j % 64`` of word ``j // 64``)
    is set when gate ``j`` is reachable from gate ``i``.  The attack
    keeps it up to date as it commits edges
    (:func:`repro.attacks.proximity.commit_edge`).
    """

    index: dict[str, int]
    bits: np.ndarray

    def has(self, row: int, column: int) -> bool:
        return self.bits.item(row, column >> 6) >> (column & 63) & 1 == 1


def creates_loop(reaches: Reachability, source: SourceStub, sink: SinkStub) -> bool:
    """Would connecting source -> sink close a combinational cycle?

    Gates outside the skeleton never close one.  TIE sources never
    participate in loops ("a TIE cell is not driven by another gate").
    """
    if source.is_tie:
        return False
    if sink.owner.startswith("PO:"):
        return False
    driver_gate = source.owner
    if driver_gate.startswith("PAD:"):
        return False
    row = reaches.index.get(sink.owner)
    column = reaches.index.get(driver_gate)
    return row is not None and column is not None and reaches.has(row, column)


# ----------------------------------------------------------------------
# Hint 5: timing constraints — vacuous for TIE cells (static nets)
# ----------------------------------------------------------------------
def timing_allows(
    context: HintContext, source: SourceStub, sink: SinkStub, slack_factor: float
) -> bool:
    """Prune connections that would blow the visible critical path.

    The attacker assumes the design met timing: a candidate implying a
    path meaningfully longer than the FEOL-visible critical path is
    unlikely.  "Timing constraints do not apply to TIE cells, which define
    only static paths."
    """
    if source.is_tie:
        return True
    driver_gate = source.owner
    if driver_gate.startswith("PAD:"):
        return True
    if sink.owner.startswith("PO:"):
        return True
    depth_before = context.levels.get(driver_gate, 0)
    depth_after = context.suffix_depth.get(sink.owner, 1)
    return depth_before + depth_after <= slack_factor * max(4, context.max_level)
