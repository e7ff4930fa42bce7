"""The big-int reference simulator: the compiled engine's oracle.

Patterns are packed one per bit lane of a Python integer and the netlist
is walked gate by gate in topological order.  :mod:`repro.sim.compiled`
restates the same evaluation over levelized NumPy programs and must stay
**bit-identical** to it, word for word:

* :func:`simulate_words_bigint` — every net's word, with overrides;
* :func:`reference_hd_oer` — the Monte-Carlo HD/OER chunk loop over the
  same RNG stream and chunking as :func:`repro.metrics.hd_oer.
  compute_hd_oer`;
* :class:`FaultSimulator` — cone-based stuck-at fault simulation, the
  oracle of :func:`repro.atpg.fault_sim.fault_coverage`
  (:func:`reference_fault_coverage`), and :func:`failing_output_words`.

The differential tests in ``tests/test_sim_compiled.py``,
``tests/test_golden_metrics.py``, ``tests/test_attack_edge_cases.py``
and ``tests/test_recovered_program.py`` compare production against
these functions with ``==``.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from repro.atpg.faults import StuckAtFault
from repro.metrics.hd_oer import DEFAULT_HD_PATTERNS, HdOerReport
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType, evaluate_gate_words
from repro.sim.bitparallel import iter_pattern_chunks, mask_for


def simulate_words_bigint(
    circuit: Circuit,
    input_words: Mapping[str, int],
    num_patterns: int,
    overrides: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """Words per net, one topological sweep of Python big-int words."""
    if circuit.is_sequential:
        raise ValueError(
            "simulate_words handles combinational circuits; lower with "
            "combinational_core() first"
        )
    mask = mask_for(num_patterns)
    values: dict[str, int] = {}
    overrides = overrides or {}
    for net in circuit.topological_order():
        if net in overrides:
            values[net] = overrides[net] & mask
            continue
        gate = circuit.gates[net]
        if gate.gate_type is GateType.INPUT:
            try:
                values[net] = input_words[net] & mask
            except KeyError as exc:
                raise KeyError(f"no stimulus for primary input {net!r}") from exc
        else:
            fanin_words = [values[n] for n in gate.fanin]
            values[net] = evaluate_gate_words(gate.gate_type, fanin_words, mask)
    return values


def output_words_bigint(
    circuit: Circuit,
    input_words: Mapping[str, int],
    num_patterns: int,
    overrides: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """Primary-output words of :func:`simulate_words_bigint`."""
    values = simulate_words_bigint(circuit, input_words, num_patterns, overrides)
    return {net: values[net] for net in circuit.outputs}


def reference_hd_oer(
    original: Circuit,
    recovered,
    patterns: int = DEFAULT_HD_PATTERNS,
    seed: int = 5,
    chunk: int = 4096,
) -> HdOerReport:
    """HD/OER of *recovered* (a :class:`Circuit` or a recovered machine,
    rendered to its netlist) against *original*, one big-int chunk at a
    time."""
    if original.is_sequential:
        original = original.combinational_core()
    if not isinstance(recovered, Circuit):
        recovered = recovered.circuit().combinational_core()
    elif recovered.is_sequential:
        recovered = recovered.combinational_core()
    if sorted(original.inputs) != sorted(recovered.inputs):
        raise ValueError("input interfaces differ; cannot compare")
    if len(original.outputs) != len(recovered.outputs):
        raise ValueError("output counts differ; cannot compare")

    rng = random.Random(seed)
    total_bits = 0
    differing_bits = 0
    erroneous_patterns = 0
    total_patterns = 0
    for words, lanes in iter_pattern_chunks(original.inputs, patterns, chunk, rng):
        out_a = output_words_bigint(original, words, lanes)
        out_b = output_words_bigint(recovered, words, lanes)
        error_word = 0
        for net_a, net_b in zip(original.outputs, recovered.outputs):
            diff = out_a[net_a] ^ out_b[net_b]
            differing_bits += diff.bit_count()
            error_word |= diff
        total_bits += lanes * len(original.outputs)
        erroneous_patterns += error_word.bit_count()
        total_patterns += lanes

    hd = 100.0 * differing_bits / total_bits if total_bits else 0.0
    oer = 100.0 * erroneous_patterns / total_patterns if total_patterns else 0.0
    return HdOerReport(hd, oer, total_patterns, engine="bigint")


class FaultSimulator:
    """Reusable fault-simulation context over one pattern batch."""

    def __init__(
        self,
        circuit: Circuit,
        input_words: Mapping[str, int],
        num_patterns: int,
    ) -> None:
        if circuit.is_sequential:
            raise ValueError("fault simulation expects a combinational circuit")
        self.circuit = circuit
        self.num_patterns = num_patterns
        self.mask = mask_for(num_patterns)
        self.good_values = simulate_words_bigint(circuit, input_words, num_patterns)
        self._topo = circuit.topological_order()
        self._topo_index = {net: i for i, net in enumerate(self._topo)}
        self._output_set = set(circuit.outputs)

    def detection_word(self, fault: StuckAtFault) -> int:
        """Packed word with bit *p* set iff pattern *p* detects *fault*.

        Detection means at least one primary output differs from the good
        value.  Only the fault's fanout cone is re-evaluated.
        """
        stuck_word = self.mask if fault.value else 0
        if self.good_values[fault.net] == stuck_word:
            return 0  # fault never excited by this batch
        cone = self.circuit.transitive_fanout([fault.net])
        ordered = sorted(cone, key=self._topo_index.__getitem__)
        faulty: dict[str, int] = {fault.net: stuck_word}
        detected = 0
        if fault.net in self._output_set:
            detected |= self.good_values[fault.net] ^ stuck_word
        for net in ordered:
            if net == fault.net:
                continue
            gate = self.circuit.gates[net]
            if gate.is_dff or gate.is_input:
                continue
            words = [faulty.get(n, self.good_values[n]) for n in gate.fanin]
            value = evaluate_gate_words(gate.gate_type, words, self.mask)
            if value == self.good_values[net]:
                continue  # fault effect masked on this net
            faulty[net] = value
            if net in self._output_set:
                detected |= value ^ self.good_values[net]
        return detected

    def detects(self, fault: StuckAtFault) -> bool:
        """True when at least one pattern of the batch detects *fault*."""
        return self.detection_word(fault) != 0


def reference_fault_coverage(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    input_words: Mapping[str, int],
    num_patterns: int,
) -> tuple[float, list[StuckAtFault]]:
    """``(ratio, undetected)`` of *faults*, one cone walk per fault."""
    simulator = FaultSimulator(circuit, input_words, num_patterns)
    undetected = [f for f in faults if not simulator.detects(f)]
    covered = len(faults) - len(undetected)
    ratio = covered / len(faults) if faults else 1.0
    return ratio, undetected


def failing_output_words(
    circuit: Circuit,
    fault: StuckAtFault,
    input_words: Mapping[str, int],
    num_patterns: int,
) -> dict[str, int]:
    """Per-output difference words (good XOR faulty) for *fault*."""
    good = simulate_words_bigint(circuit, input_words, num_patterns)
    stuck_word = mask_for(num_patterns) if fault.value else 0
    faulty = simulate_words_bigint(
        circuit, input_words, num_patterns, overrides={fault.net: stuck_word}
    )
    return {net: good[net] ^ faulty[net] for net in circuit.outputs}
