"""Logic equivalence checking (LEC) via simulation + SAT miter.

Replaces Cadence Conformal LEC in the paper's flow: after locking, the
locked netlist (with the correct key applied) must be functionally
equivalent to the original.  The checker first runs random bit-parallel
simulation to find cheap counterexamples, then proves equivalence with a
miter (outputs XORed pairwise, OR of differences asserted true => UNSAT
means equivalent).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.netlist.circuit import Circuit
from repro.sat.cnf import Cnf
from repro.sat.solver import SatResult, solve_cnf
from repro.sat.tseitin import encode_circuit
from repro.sim.bitparallel import output_words, random_words
from repro.sim.compiled import compile_circuit


@dataclass
class LecResult:
    """Equivalence verdict: ``equivalent`` is None when inconclusive."""

    equivalent: bool | None
    method: str  # "simulation" | "sat" | "exhausted-limit"
    counterexample: dict[str, int] | None = None
    sat_stats: object | None = None
    #: Whether the counterexample was replayed through the simulator and
    #: genuinely distinguishes the circuits (``None`` when there is no
    #: counterexample).  Simulation-phase counterexamples are confirmed
    #: by construction; SAT models are replayed to guard against encoder
    #: or solver defects.
    counterexample_confirmed: bool | None = None


def build_miter(a: Circuit, b: Circuit) -> tuple[Cnf, dict[str, int], dict[str, int]]:
    """CNF miter of two circuits with matching interfaces.

    Returns ``(cnf, vars_a, vars_b)`` where the input variables are shared
    between both encodings and one extra clause asserts that at least one
    output pair differs.
    """
    if sorted(a.inputs) != sorted(b.inputs):
        raise ValueError("miter requires identical primary-input sets")
    if len(a.outputs) != len(b.outputs):
        raise ValueError("miter requires identical output counts")
    cnf = Cnf()
    enc_a = encode_circuit(a, cnf=cnf)
    shared = {net: enc_a.var_of[net] for net in a.inputs}
    enc_b = encode_circuit(b, cnf=cnf, var_of=shared)
    difference_literals: list[int] = []
    for out_a, out_b in zip(a.outputs, b.outputs):
        va, vb = enc_a.var_of[out_a], enc_b.var_of[out_b]
        diff = cnf.new_var()
        # diff <-> va XOR vb
        cnf.add_clause((-va, -vb, -diff))
        cnf.add_clause((va, vb, -diff))
        cnf.add_clause((va, -vb, diff))
        cnf.add_clause((-va, vb, diff))
        difference_literals.append(diff)
    cnf.add_clause(difference_literals)
    return cnf, enc_a.var_of, enc_b.var_of


def check_equivalence(
    a: Circuit,
    b: Circuit,
    simulation_patterns: int = 2048,
    conflict_limit: int | None = 200_000,
    seed: int = 7,
) -> LecResult:
    """Decide functional equivalence of *a* and *b*.

    Output correspondence is positional (``a.outputs[i]`` vs
    ``b.outputs[i]``), matching how the locking flow preserves output
    ordering.  Sequential designs are compared on their combinational
    cores (DFF correspondence by name).
    """
    if a.is_sequential or b.is_sequential:
        a = a.combinational_core()
        b = b.combinational_core()
    if sorted(a.inputs) != sorted(b.inputs):
        raise ValueError("circuits expose different primary inputs")
    if len(a.outputs) != len(b.outputs):
        raise ValueError("circuits expose different output counts")

    # Phase 1: random simulation to catch inequivalence cheaply.  The
    # comparison stays in the array domain; only a counterexample lane
    # (if any) is materialized.
    rng = random.Random(seed)
    lanes = min(simulation_patterns, 4096)
    words = random_words(a.inputs, lanes, rng)
    rows_a = compile_circuit(a).output_word_arrays(words, lanes)
    rows_b = compile_circuit(b).output_word_arrays(words, lanes)
    diff_lane = _first_differing_lane(rows_a, rows_b)
    if diff_lane is not None:
        counterexample = {net: (words[net] >> diff_lane) & 1 for net in a.inputs}
        return LecResult(
            False, "simulation", counterexample, counterexample_confirmed=True
        )

    # Phase 2: SAT proof on the miter.
    return _prove_equivalence(a, b, conflict_limit)


def _first_differing_lane(rows_a, rows_b) -> int | None:
    """Lowest differing lane of the first differing output pair, or None
    (output pairs positionally, lanes lowest-first within the pair)."""
    for row_a, row_b in zip(rows_a, rows_b):
        diff = row_a ^ row_b
        if diff.any():
            word_index = int(diff.nonzero()[0][0])
            low = int(diff[word_index])
            return word_index * 64 + (low & -low).bit_length() - 1
    return None


def _prove_equivalence(
    a: Circuit, b: Circuit, conflict_limit: int | None
) -> LecResult:
    """The SAT phase of :func:`check_equivalence` (miter UNSAT proof)."""
    cnf, vars_a, _vars_b = build_miter(a, b)
    result: SatResult = solve_cnf(cnf, conflict_limit=conflict_limit)
    if result.unsat:
        return LecResult(True, "sat", sat_stats=result.stats)
    if result.sat:
        model = result.model or {}
        counterexample = {
            net: int(model.get(vars_a[net], False)) for net in a.inputs
        }
        return LecResult(
            False,
            "sat",
            counterexample,
            sat_stats=result.stats,
            counterexample_confirmed=_confirm_counterexample(
                a, b, counterexample
            ),
        )
    return LecResult(None, "exhausted-limit", sat_stats=result.stats)


def _confirm_counterexample(
    a: Circuit, b: Circuit, counterexample: dict[str, int]
) -> bool:
    """Replay one counterexample pattern on both circuits.

    True iff some positional output pair differs under the pattern —
    i.e. the SAT model really witnesses inequivalence and is not an
    artifact of a miter-encoding defect.
    """
    words = {net: counterexample.get(net, 0) for net in a.inputs}
    out_a = output_words(a, words, 1)
    out_b = output_words(b, words, 1)
    return any(
        out_a[net_a] != out_b[net_b]
        for net_a, net_b in zip(a.outputs, b.outputs)
    )
