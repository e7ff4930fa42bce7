#!/usr/bin/env python3
"""Fig. 4 walk-through: the fault-injection locking on c17, step by step.

Reproduces the paper's illustrative example: inject a stuck-at fault into
c17, enumerate its failing patterns (the paper's Fig. 4(b) lists three
cubes), build the keyed comparator (Fig. 4(d)), and show that the locked
circuit is equivalent under the correct key and corrupted under wrong
ones.

Run:  python examples/c17_walkthrough.py
"""

import random

from repro.atpg import StuckAtFault, enumerate_failing_patterns
from repro.benchgen import c17
from repro.locking.partition import extract_sink_modules
from repro.locking.restore import insert_restore
from repro.netlist.bench_io import dumps
from repro.netlist.circuit import Gate
from repro.netlist.gate_types import GateType
from repro.sat.lec import check_equivalence
from repro.sim.bitparallel import exhaustive_words, output_words


def main() -> None:
    circuit = c17()
    print("== The original c17 ==")
    print(dumps(circuit))

    fault = StuckAtFault("N10", 0)
    print(f"== Injecting {fault} (cf. the paper's U12 stuck-at-0) ==")
    modules = extract_sink_modules(circuit, fault.net, max_support=5)
    assert modules is not None
    work = circuit.copy("c17_locked")

    print("Failing patterns per affected sink (Fig. 4(b) style):")
    patterns_per_module = []
    for module in modules:
        patterns = enumerate_failing_patterns(
            circuit, fault, module, max_inputs=5
        )
        patterns_per_module.append(patterns)
        for sink, cover in patterns.covers_by_output.items():
            print(f"  sink {sink}  over {patterns.variables}:")
            for cube in cover:
                print(f"    {cube.to_pattern_string(len(patterns.variables))}")

    # hard-wire the fault, then restore with a keyed comparator
    work.replace_gate(Gate(fault.net, GateType.TIELO, ()))
    rng = random.Random(7)
    key_bits = []
    index = 0
    for module, patterns in zip(modules, patterns_per_module):
        result = insert_restore(work, module, patterns, rng, index, "lk")
        key_bits.extend(result.key_bits)
        index += len(result.key_bits)

    print(f"\n== Keyed restore inserted: {len(key_bits)} key bits ==")
    for bit in key_bits:
        polarity = "TIEHI" if bit.value else "TIELO"
        print(f"  key[{bit.index}] = {bit.value} ({polarity} "
              f"{bit.tie_cell} -> key-gate {bit.key_gate})")

    lec = check_equivalence(circuit, work)
    print(f"\nLEC with the correct key: equivalent = {lec.equivalent}")

    # flip one key bit: the comparator now fires on the wrong cube
    wrong = work.copy("c17_wrongkey")
    first = key_bits[0]
    flipped = GateType.TIELO if first.value else GateType.TIEHI
    wrong.replace_gate(Gate(first.tie_cell, flipped, ()))
    words, lanes = exhaustive_words(circuit.inputs)
    good = output_words(circuit, words, lanes)
    bad = output_words(wrong, words, lanes)
    errors = sum(
        (good[a] ^ bad[b]).bit_count()
        for a, b in zip(circuit.outputs, wrong.outputs)
    )
    print(f"One flipped key bit: {errors} wrong output bits over all "
          f"{lanes} input patterns — the key matters, bit by bit.")


if __name__ == "__main__":
    main()
