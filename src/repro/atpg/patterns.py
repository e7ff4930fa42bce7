"""Exact failing-pattern enumeration for stuck-at faults.

This is the role Atalanta-M plays in the paper ("able to provide all
failing patterns").  A candidate fault is evaluated inside its *module*
(the nets between a bounded-support cut and one sink, see
:mod:`repro.locking.partition`), in place on the parent circuit: one
exhaustive big-int sweep of the module's gates gives the good machine,
and a second sweep from the fault site onward gives the stuck machine,
so each module output yields the exact set of cut minterms on which the
fault is observed.  Each set is then compressed into a cube cover (the
paper's Fig. 4(b) list of failing patterns with don't-cares).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.atpg.cubes import Cube, cover_care_bits, exact_cover
from repro.atpg.faults import StuckAtFault
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import evaluate_gate_words
from repro.sim.bitparallel import _exhaustive_columns

if TYPE_CHECKING:
    from repro.locking.partition import FaultModule


class FailingSetTooLarge(Exception):
    """The fault fails on more minterms than the configured bound."""


@dataclass
class FailingPatterns:
    """The exact failing behaviour of one fault inside one module."""

    fault: StuckAtFault
    variables: list[str]  # module inputs, index i = bit i of a minterm
    minterms_by_output: dict[str, set[int]]
    covers_by_output: dict[str, list[Cube]] = field(default_factory=dict)

    @property
    def union_minterms(self) -> set[int]:
        union: set[int] = set()
        for terms in self.minterms_by_output.values():
            union.update(terms)
        return union

    @property
    def affected_outputs(self) -> list[str]:
        return [o for o, terms in self.minterms_by_output.items() if terms]

    def unique_cubes(self) -> list[Cube]:
        """Deduplicated cube list across all outputs (shared comparators)."""
        seen: dict[Cube, None] = {}
        for cover in self.covers_by_output.values():
            for cube in cover:
                seen.setdefault(cube, None)
        return list(seen)

    def key_bits(self) -> int:
        """Key bits consumed: one per care literal of each unique cube."""
        return cover_care_bits(self.unique_cubes())

    @property
    def is_redundant(self) -> bool:
        """No failing minterm at all: the fault site logic is redundant."""
        return not any(self.minterms_by_output.values())


def enumerate_failing_patterns(
    circuit: Circuit,
    fault: StuckAtFault,
    module: FaultModule | None = None,
    max_inputs: int = 16,
    max_minterms: int = 256,
) -> FailingPatterns:
    """Compute the exact failing sets of *fault* in *module* of *circuit*.

    The module's cut nets are the variables (in cut order) and its sinks
    the observed outputs; with ``module=None`` the whole combinational
    *circuit* is the module (its inputs are the variables, its outputs
    observed).  Raises ``ValueError`` for more than *max_inputs*
    variables, and :class:`FailingSetTooLarge` when any output fails on
    more than *max_minterms* assignments — such faults need restore
    comparators too large to be cost-effective and are skipped by the
    locking flow.
    """
    if module is None:
        variables = circuit.inputs
        order = combinational_order(circuit)
        outputs = circuit.outputs
    else:
        variables, order, outputs = module.cut_nets, module.gates, module.sink_nets
    if len(variables) > max_inputs:
        raise ValueError(
            f"module has {len(variables)} inputs (> {max_inputs}); "
            "partition with a tighter support bound"
        )
    mask = (1 << (1 << len(variables))) - 1
    good = dict(zip(variables, _exhaustive_columns(len(variables))))
    sweep_words(circuit, order, good, mask)
    # The stuck machine differs from the good one only downstream of the
    # fault: keep just the words that differ.
    start = order.index(fault.net) + 1 if fault.net in order else 0
    faulty = {fault.net: mask if fault.value else 0}
    gates = circuit.gates
    for name in order[start:]:
        fanin = gates[name].fanin
        if any(net in faulty for net in fanin):
            word = evaluate_gate_words(
                gates[name].gate_type,
                [faulty.get(net, good[net]) for net in fanin],
                mask,
            )
            if word != good[name]:
                faulty[name] = word

    minterms_by_output: dict[str, set[int]] = {}
    for output in outputs:
        diff = good[output] ^ faulty.get(output, good[output])
        count = diff.bit_count()
        if count > max_minterms:
            raise FailingSetTooLarge(
                f"{fault}: output {output} fails on {count} minterms"
            )
        terms: set[int] = set()
        while diff:
            low = diff & -diff
            terms.add(low.bit_length() - 1)
            diff ^= low
        minterms_by_output[output] = terms

    result = FailingPatterns(fault, list(variables), minterms_by_output)
    for output, terms in minterms_by_output.items():
        if terms:
            result.covers_by_output[output] = exact_cover(
                terms, len(variables), max_minterms=max_minterms
            )
        else:
            result.covers_by_output[output] = []
    return result


def combinational_order(circuit: Circuit) -> list[str]:
    """Every non-INPUT net of a combinational *circuit*, in topological order."""
    if circuit.is_sequential:
        raise ValueError(
            "expected a combinational circuit; lower with "
            "combinational_core() first"
        )
    gates = circuit.gates
    return [n for n in circuit.topological_order() if not gates[n].is_input]


def sweep_words(
    circuit: Circuit, order: list[str], values: dict[str, int], mask: int
) -> dict[str, int]:
    """Evaluate the gates *order* of *circuit* into *values*, in order.

    *values* holds a big-int word per already known net (one bit lane
    per pattern, within *mask*) and gains one per evaluated gate.
    """
    gates = circuit.gates
    for name in order:
        gate = gates[name]
        values[name] = evaluate_gate_words(
            gate.gate_type, [values[n] for n in gate.fanin], mask
        )
    return values


def verify_cover_exactness(patterns: FailingPatterns) -> bool:
    """Check every per-output cover reproduces its minterm set exactly."""
    from repro.atpg.cubes import cover_minterms

    width = len(patterns.variables)
    for output, cover in patterns.covers_by_output.items():
        if cover_minterms(cover, width) != patterns.minterms_by_output[output]:
            return False
    return True
