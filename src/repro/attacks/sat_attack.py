"""Oracle-less SAT-based key extraction — and why it is futile here.

Sec. II-C: "an attacker may want to resort to key extraction attacks
commonly leveraged against logic locking, in particular SAT attacks.
However, recall the absence of an oracle for our scheme ... such attacks
are deemed futile."

The classic SAT attack (Subramanyan et al., HOST'15) needs an *oracle*
(an unlocked chip) to generate distinguishing input patterns.  Under the
split-manufacturing threat model the chip is not yet fabricated, so the
attacker can only ask which keys are *consistent with the locked netlist
itself* — and every key is: the circuit is a total function for any key
assignment.  :func:`demonstrate_sat_futility` makes this concrete by
checking, for a sample of random keys, that the locked CNF is satisfiable
under each of them, i.e. the FEOL alone constrains nothing.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

from repro.attacks.result import AttackResult
from repro.locking.key import LockedCircuit
from repro.phys.split import FeolView
from repro.sat.solver import solve_cnf
from repro.sat.tseitin import encode_circuit
from repro.utils.rng import rng_for


@dataclass
class SatFutilityReport:
    """Outcome of the oracle-less SAT probe."""

    keys_probed: int
    keys_consistent: int
    distinguishing_found: bool

    @property
    def all_keys_consistent(self) -> bool:
        return self.keys_probed == self.keys_consistent


def _witness_consistency(
    freed, encoding, tie_cells: tuple[str, ...], guesses: list[list[int]]
) -> int:
    """Count keys with a *verified* satisfying model, via one batched sweep.

    The classic probe runs one CDCL solve per sampled key.  But the
    freed circuit is a total function: simulating it under a key guess
    *constructs* a model — the CDCL search is pure overhead.  One
    :meth:`~repro.sim.compiled.CompiledCircuit.simulate_batch_array`
    call carries every guess as an override column; each column's trace
    is extended over the encoding's auxiliary XOR variables and then
    genuinely checked against every CNF clause
    (:meth:`~repro.sat.cnf.Cnf.evaluate`), so consistency is proven,
    not assumed.
    """
    from repro.sim.compiled import compile_circuit

    engine = compile_circuit(freed)
    # All-zero stimulus for every primary input (the freed TIE inputs
    # included); each guess is one override column forcing the ties.
    stimulus = {net: 0 for net in freed.inputs}
    override_sets = [
        {tie: (1 if bit else 0) for tie, bit in zip(tie_cells, guess)}
        for guess in guesses
    ]
    buf = engine.simulate_batch_array(stimulus, 1, override_sets)
    consistent = 0
    for column in range(len(guesses)):
        assignment = {
            encoding.var_of[net]: bool(int(buf[slot, column, 0]) & 1)
            for slot, net in enumerate(engine.nets)
        }
        encoding.extend_with_aux(assignment)
        if encoding.cnf.evaluate(assignment):
            consistent += 1
    return consistent


def demonstrate_sat_futility(
    locked: LockedCircuit,
    sample_keys: int = 16,
    seed: int = 2019,
    method: str = "witness",
) -> SatFutilityReport:
    """Show that without an oracle, SAT cannot rule out any key.

    For each sampled key we check that the locked CNF is satisfiable
    under its TIE polarities: a key would only be refutable if the CNF
    became UNSAT, which never happens for a well-formed netlist.
    Consequently the SAT attack's distinguishing-input loop cannot even
    start.

    *method* selects how satisfiability is established — ``"witness"``
    (default) simulates all sampled keys in one batched array sweep and
    verifies each trace against the CNF; ``"cdcl"`` runs the original
    per-key CDCL solves.  Both draw keys from the same stream and
    produce identical reports (the differential test enforces it).
    """
    if method not in ("witness", "cdcl"):
        raise ValueError(f"unknown sat-futility method {method!r}")
    rng = rng_for(seed, "sat-futility", locked.circuit.name)
    base = locked.with_key([0] * locked.key_length, name="satprobe")
    # Encode once with free TIE polarities: replace each TIE cell with a
    # fresh input variable so assumptions can set it per probe.
    from repro.netlist.circuit import Circuit
    from repro.netlist.gate_types import GateType

    freed = Circuit(f"{base.name}_freekey")
    tie_cells = set(locked.tie_cells)
    for gate in base.gates.values():
        if gate.name in tie_cells:
            freed.add(gate.name, GateType.INPUT)
        else:
            freed.add_gate(gate)
    for net in base.outputs:
        freed.add_output(net)
    encoding = encode_circuit(freed)

    guesses = [
        [rng.randrange(2) for _ in range(locked.key_length)]
        for _ in range(sample_keys)
    ]
    if method == "witness":
        consistent = _witness_consistency(
            freed, encoding, locked.tie_cells, guesses
        )
    else:
        consistent = 0
        for guess in guesses:
            assumptions = [
                encoding.literal(tie, value)
                for tie, value in zip(locked.tie_cells, guess)
            ]
            result = solve_cnf(encoding.cnf, assumptions=assumptions)
            if result.sat:
                consistent += 1
    return SatFutilityReport(
        keys_probed=sample_keys,
        keys_consistent=consistent,
        distinguishing_found=False,
    )


def sat_futility_attack(
    view: FeolView,
    locked: LockedCircuit,
    sample_keys: int = 16,
    seed: int = 2019,
) -> AttackResult:
    """The SAT attacker's best effort, on the shared result model.

    The probe shows the FEOL constrains no key, so the attacker's
    commit is indistinguishable from random guessing: every key pin is
    wired to a uniformly random TIE cell, regular pins to their nearest
    source (SAT offers nothing beyond the geometric fallback), and the
    key guess is drawn uniformly.  The futility evidence rides along in
    ``diagnostics`` so the scenario pipeline can report it.
    """
    from repro.attacks.random_guess import random_guess_attack

    report = demonstrate_sat_futility(
        locked, sample_keys=sample_keys, seed=seed
    )
    rng = random.Random(seed)
    base = random_guess_attack(view, seed=seed)
    result = base.derived(
        strategy="sat-futility",
        netlist_name=f"{view.circuit_name}_sat",
    )
    result.engine = "sat"
    result.key_guess = tuple(
        rng.randrange(2) for _ in range(locked.key_length)
    )
    result.diagnostics["sat_futility"] = asdict(report)
    return result
