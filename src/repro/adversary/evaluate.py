"""Scenario execution and candidate-hypothesis evaluation.

:func:`run_scenario` compiles one resolved :class:`~repro.adversary.
scenario.Scenario` into its attack pipeline — engine run, optional
key-pin post-processing, metric computation — and returns a plain,
picklable :class:`AttackOutcome` (the payload of the runner's cached
``attack`` stage).

All hypothesis evaluation is **batched through the compiled simulation
core**: HD/OER runs on :func:`repro.metrics.hd_oer.compute_hd_oer`
(array-domain sweeps of the attacker's recovered machine, compiled from
the FEOL view's index arrays with no netlist rebuilt), and oracle-armed
key search packs every candidate key as one override column of
:meth:`repro.sim.compiled.CompiledCircuit.simulate_batch_array`; the
outcome's ``sim_engine`` label names the path that ran.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping

from repro.adversary.engine import AttackContext, get_engine
from repro.adversary.scenario import Scenario
from repro.attacks.postprocess import reconnect_key_gates_to_ties
from repro.attacks.proximity import ProximityAttackConfig
from repro.attacks.result import AttackResult
from repro.locking.key import LockedCircuit
from repro.metrics.ccr import CcrReport, compute_ccr
from repro.metrics.hd_oer import HdOerReport, compute_hd_oer
from repro.metrics.pnr import PnrReport, compute_pnr
from repro.netlist.circuit import Circuit
from repro.phys.split import FeolView
from repro.sim.compiled import (
    compile_circuit,
    num_words,
    popcount_rows,
)

#: Monte-Carlo patterns per key-hypothesis batch; plenty to separate
#: keys functionally while keeping the (nets x batch x words) buffer
#: cache-resident.
KEY_SEARCH_PATTERNS = 512

#: Override columns per compiled sweep during key search.
KEY_BATCH_COLUMNS = 64


@dataclass
class AttackOutcome:
    """Everything one scenario run measured (cache-stable: no timings)."""

    scenario: Scenario
    benchmark: str
    split_layer: int
    key_bits: int
    engine: str
    strategy: str
    ccr: CcrReport
    ccr_raw: CcrReport  # before the key-pin post-processing
    pnr: PnrReport
    broken_nets: int  # of the attacked view
    visible_nets: int
    hd_oer: HdOerReport | None = None
    key_guess: tuple[int, ...] | None = None
    key_accuracy: float | None = None
    hypotheses: int = 0
    sim_engine: str = "none"
    diagnostics: dict[str, object] = field(default_factory=dict)


def implied_key_guess(
    result: AttackResult, locked: LockedCircuit
) -> tuple[int, ...]:
    """The key the attacker's assignment commits to, bit by bit.

    A key pin wired to a TIE cell implies that TIE's (FEOL-visible)
    polarity; a pin wired to anything else carries no defined constant
    and is read as the complement of the true bit (it is functionally
    wrong for sure), keeping accuracy conservative.
    """
    view = result.view
    tie_polarity = {
        s.net: (s.tie_value or 0)
        for s in view.source_stubs
        if s.is_tie
    }
    stub_of_pin: dict[tuple[str, str], int] = {}
    for stub in view.key_sink_stubs:
        stub_of_pin[(stub.owner, stub.net)] = stub.stub_id
    guess: list[int] = []
    for bit in locked.key_bits:
        stub_id = stub_of_pin.get((bit.key_gate, bit.tie_cell))
        assigned = (
            result.assignment.get(stub_id) if stub_id is not None else None
        )
        if assigned in tie_polarity:
            guess.append(tie_polarity[assigned])
        else:
            guess.append(1 - bit.value)
    return tuple(guess)


def key_accuracy(guess: tuple[int, ...], locked: LockedCircuit) -> float:
    """Fraction of key bits recovered correctly (1.0 = full key)."""
    if not locked.key_bits:
        return 0.0
    correct = sum(
        1 for bit, value in zip(locked.key_bits, guess) if bit.value == value
    )
    return correct / len(locked.key_bits)


def oracle_key_search(
    locked: LockedCircuit,
    oracle: Circuit,
    budget: int,
    seed: int,
    first_guess: tuple[int, ...] | None = None,
    patterns: int = KEY_SEARCH_PATTERNS,
) -> tuple[tuple[int, ...], dict[str, object]]:
    """Best key among *budget* hypotheses, scored against the oracle.

    Every hypothesis becomes one override column (all TIE nets forced
    to the hypothesised polarity words) of a single stimulus load;
    :meth:`CompiledCircuit.simulate_batch_array` evaluates
    ``KEY_BATCH_COLUMNS`` of them per sweep.  Deterministic: fixed RNG
    stream, ties broken by lowest hypothesis index.
    """
    rng = random.Random(seed)
    length = locked.key_length
    hypotheses: list[tuple[int, ...]] = []
    if first_guess is not None and len(first_guess) == length:
        hypotheses.append(tuple(first_guess))
    seen = set(hypotheses)
    while len(hypotheses) < budget:
        guess = tuple(rng.randrange(2) for _ in range(length))
        if guess in seen:
            continue  # budget counts distinct keys
        seen.add(guess)
        hypotheses.append(guess)
        if len(seen) >= 1 << min(length, 60):
            break  # keyspace exhausted

    engine = compile_circuit(locked.circuit)
    oracle_engine = compile_circuit(oracle)
    input_words = {
        net: rng.getrandbits(patterns) for net in oracle.inputs
    }
    # Output rows correspond positionally (resynthesis may rename
    # output nets but preserves their order — the same convention
    # ``compute_hd_oer`` relies on).
    reference = oracle_engine.output_word_arrays(input_words, patterns)
    if reference.shape[0] != len(engine.outputs):
        raise ValueError("oracle and locked output counts differ")

    full_word = (1 << patterns) - 1
    tie_nets = locked.tie_cells
    best_index = -1
    best_mismatches: int | None = None
    for start in range(0, len(hypotheses), KEY_BATCH_COLUMNS):
        chunk = hypotheses[start : start + KEY_BATCH_COLUMNS]
        override_sets = [
            {
                net: (full_word if bit else 0)
                for net, bit in zip(tie_nets, guess)
            }
            for guess in chunk
        ]
        buf = engine.simulate_batch_array(
            input_words, patterns, override_sets
        )
        outputs = buf[engine.output_slots]  # (outs, batch, words)
        diff = outputs ^ reference[:, None, :]
        mismatches = popcount_rows(diff).sum(axis=0)  # per column
        for column in range(len(chunk)):
            count = int(mismatches[column])
            if best_mismatches is None or count < best_mismatches:
                best_mismatches = count
                best_index = start + column
    best = hypotheses[best_index]
    diagnostics: dict[str, object] = {
        "hypotheses": len(hypotheses),
        "patterns": patterns,
        "best_mismatch_bits": int(best_mismatches or 0),
        "batch_columns": KEY_BATCH_COLUMNS,
        "sim_words": num_words(patterns),
    }
    return best, diagnostics


def grid_verdict(
    outcomes: Mapping[tuple, "AttackOutcome"],
    floor_scenario: str = "random",
) -> tuple[bool, list[str]]:
    """The smoke acceptance, shared by the CLI and the benchmark.

    *outcomes* is keyed ``(*cell_key, scenario)`` with the scenario name
    last (the shape of :meth:`AttackCampaignResult.outcomes` — the cell
    key carries the grid axes plus every seed).  Per grid cell, every
    non-floor connection-recovering scenario must strictly beat the
    floor's regular CCR.  Returns ``(ok, problems)``.
    """
    problems: list[str] = []
    grid: dict[tuple, dict[str, AttackOutcome]] = {}
    for key, outcome in outcomes.items():
        *cell_key, scenario = key
        grid.setdefault(tuple(cell_key), {})[scenario] = outcome
    for key, by_scenario in sorted(grid.items()):
        floor = by_scenario.get(floor_scenario)
        if floor is None:
            problems.append(f"{key}: no {floor_scenario} floor in the grid")
            continue
        for name, outcome in sorted(by_scenario.items()):
            if name == floor_scenario or not outcome.scenario.wants_connections:
                continue
            if outcome.ccr.regular_ccr <= floor.ccr.regular_ccr:
                problems.append(
                    f"{key}: {name} regular CCR "
                    f"{outcome.ccr.regular_ccr:.1f} does not beat "
                    f"{floor_scenario} {floor.ccr.regular_ccr:.1f}"
                )
    return (not problems), problems


def run_scenario(
    scenario: Scenario,
    view: FeolView,
    locked: LockedCircuit,
    original: Circuit,
    benchmark: str,
    split_layer: int,
    hd_patterns: int,
    hd_seed: int = 5,
    postprocess_seed: int = 13,
    attack: ProximityAttackConfig | None = None,
    cache: object | None = None,
    total_regular_connections: int | None = None,
    protected_nets: frozenset[str] | None = None,
    defense_info: dict[str, object] | None = None,
) -> AttackOutcome:
    """Execute one resolved scenario end to end.

    Pure function of its arguments (the scenario must already be
    resolved — a ``None`` seed or budget is a programming error here),
    so outcomes are bit-identical across serial, parallel and cached
    execution.  *attack* configures the ``proximity`` engine.

    ``total_regular_connections`` (the regular routed-connection count
    of the *undefended* layout) enables the ``recovery`` diagnostics
    block: effective regular recovery over a denominator that stays
    constant across a cell's defense axis, the only CCR-like metric
    defended and undefended outcomes can be compared on.
    ``protected_nets``/``defense_info`` add the ``defense`` block for
    defended views (per-protected-net CCR plus the defense's summary).
    """
    if scenario.seed is None or scenario.budget is None:
        raise ValueError(
            "run_scenario needs a resolved scenario; call .resolve() first"
        )
    engine = get_engine(scenario.engine)
    ctx = AttackContext(
        view=view,
        scenario=scenario,
        seed=scenario.seed,
        budget=scenario.budget,
        locked=locked,
        oracle=original if scenario.has_oracle else None,
        cache=cache,
        attack=attack or ProximityAttackConfig(),
    )
    raw = engine.run(ctx)
    result = raw
    if scenario.postprocess:
        result = reconnect_key_gates_to_ties(raw, seed=postprocess_seed)

    outcome = AttackOutcome(
        scenario=scenario,
        benchmark=benchmark,
        split_layer=split_layer,
        key_bits=locked.key_length,
        engine=engine.name,
        strategy=result.strategy,
        ccr=compute_ccr(result),
        ccr_raw=compute_ccr(raw),
        pnr=compute_pnr(result),
        broken_nets=view.broken_net_count,
        visible_nets=len(view.visible_nets),
        diagnostics=dict(result.diagnostics),
    )

    if total_regular_connections is not None:
        recovered = 0
        broken = 0
        for stub in view.sink_stubs:
            if not stub.has_escape:
                continue
            broken += 1
            if result.assignment.get(stub.stub_id) == stub.net:
                recovered += 1
        total = total_regular_connections
        known = recovered + max(0, total - broken)
        outcome.diagnostics["recovery"] = {
            "total_regular_connections": total,
            "broken_regular_connections": broken,
            "recovered_regular_connections": recovered,
            "effective_regular_recovery": (
                100.0 * known / total if total else 0.0
            ),
        }

    if protected_nets is not None:
        correct = correct_raw = exposed = 0
        for stub in view.sink_stubs:
            if stub.net not in protected_nets:
                continue
            exposed += 1
            if result.assignment.get(stub.stub_id) == stub.net:
                correct += 1
            if raw.assignment.get(stub.stub_id) == stub.net:
                correct_raw += 1
        outcome.diagnostics["defense"] = {
            **(defense_info or {}),
            "protected_sinks": exposed,
            "protected_ccr": 100.0 * correct / exposed if exposed else 0.0,
            "protected_ccr_raw": (
                100.0 * correct_raw / exposed if exposed else 0.0
            ),
        }

    if scenario.wants_connections and result.machine is not None:
        outcome.hd_oer = compute_hd_oer(
            original, result.machine, patterns=hd_patterns, seed=hd_seed
        )
        outcome.sim_engine = "compiled-array"

    if scenario.wants_key and locked.key_length:
        implied = result.key_guess or implied_key_guess(result, locked)
        if scenario.has_oracle:
            guess, key_diag = oracle_key_search(
                locked,
                original,
                budget=scenario.budget,
                seed=scenario.seed,
                first_guess=implied,
            )
            outcome.hypotheses = int(key_diag["hypotheses"])
            outcome.sim_engine = "compiled-batch"
            outcome.diagnostics["key_search"] = key_diag
        else:
            guess = implied
        outcome.key_guess = guess
        outcome.key_accuracy = key_accuracy(guess, locked)
    return outcome
