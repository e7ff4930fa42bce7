"""Differential tests: compiled array-native CDCL vs the reference solver.

**Search-identity is the contract** (see :mod:`repro.sat.dispatch`): the
compiled engine must walk the same decision sequence, learn the same
clauses, and return the same model and ``SolverStats`` counters as the
reference solver on every instance — not merely agree on sat/unsat.
Stats equality is a strong proxy: a single diverging decision, swapped
watch, or reordered learned-clause literal shifts the downstream
propagation/conflict counts within a handful of steps.

Several instances additionally pin the *absolute* reference stats so a
change that perturbs both engines in lockstep (e.g. a branching-order
"optimisation") still trips a test and must be made deliberately.
"""

import random

import pytest

from repro.benchgen import GeneratorConfig, generate_random_circuit
from repro.locking.atpg_lock import AtpgLockConfig, atpg_lock
from repro.runner.spec import AttackCampaignSpec
from repro.runner.stages import attack_payload
from repro.sat.cnf import Cnf
from repro.sat.compiled import CompiledCdclSolver
from repro.sat.dispatch import make_solver, resolve_sat_engine
from repro.sat.lec import build_miter
from repro.sat.solver import CdclSolver, VarOrderHeap, solve_cnf
from repro.utils.artifact_cache import spec_key

# --------------------------------------------------------------------------
# Instance builders.


def random_3cnf(seed: int, num_vars: int = 40, num_clauses: int = 170) -> Cnf:
    """Near-phase-transition random 3-CNF (deterministic per seed)."""
    rng = random.Random(seed)
    cnf = Cnf(num_vars=num_vars)
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), 3)
        cnf.add_clause([rng.choice([1, -1]) * v for v in variables])
    return cnf


def lock_miter(wrong_bit: int | None = None) -> Cnf:
    """Miter of a locked benchmark (keyed) against its original.

    With the correct key the miter is UNSAT (the restore logic cancels
    the injected faults); flipping *wrong_bit* makes it SAT.
    """
    circuit = generate_random_circuit(
        GeneratorConfig(num_inputs=10, num_outputs=6, num_gates=120),
        seed=5,
        name="pin",
    ).combinational_core()
    locked, _report = atpg_lock(
        circuit, AtpgLockConfig(key_bits=8, seed=5, run_lec=False)
    )
    guess = list(locked.key)
    if wrong_bit is not None:
        guess[wrong_bit] ^= 1
    cnf, _, _ = build_miter(locked.with_key(guess), circuit)
    return cnf


def run_engine(cls, cnf: Cnf, assumptions=None, conflict_limit=None):
    solver = cls(cnf.num_vars, conflict_limit=conflict_limit)
    for clause in cnf.clauses:
        solver.add_clause(clause)
    result = solver.solve(assumptions=assumptions)
    return result.status, result.model, vars(result.stats)


def assert_search_identical(cnf, assumptions=None, conflict_limit=None):
    """Both engines: same status, same model, same stats. Returns ref."""
    ref = run_engine(
        CdclSolver, cnf, assumptions=assumptions, conflict_limit=conflict_limit
    )
    compiled = run_engine(
        CompiledCdclSolver,
        cnf,
        assumptions=assumptions,
        conflict_limit=conflict_limit,
    )
    assert compiled == ref
    if ref[0] == "sat":
        assert cnf.evaluate(ref[1])
    return ref


# --------------------------------------------------------------------------
# Pinned reference stats: (status, decisions, propagations, conflicts,
# restarts, learned, deleted).  These guard against *both* engines
# drifting together — refresh deliberately when search behaviour is
# meant to change.

PINNED_RANDOM = {
    1: ("unsat", 41, 510, 37, 1, 34, 0),
    2: ("sat", 49, 636, 40, 1, 36, 0),
    3: ("unsat", 27, 461, 26, 0, 21, 0),
    4: ("sat", 32, 346, 22, 0, 22, 0),
    5: ("unsat", 50, 758, 45, 1, 39, 0),
}

PINNED_MITER = ("unsat", 236, 15517, 173, 4, 165, 0)

#: Hard enough to overflow the initial learnt-clause budget (1000) and
#: force a ``_reduce_db`` round, exercising pool compaction + remap.
PINNED_DELETION = ("unsat", 1325, 40050, 1041, 14, 1032, 496)

#: Wide enough (500 vars) that conflict analysis learns clauses past
#: the compiled engine's vector replacement-scan threshold, exercising
#: the hybrid wide-clause watch search.
PINNED_WIDE = ("unknown", 1003, 42133, 502, 9, 502, 0)


def as_tuple(status, stats):
    return (
        status,
        stats["decisions"],
        stats["propagations"],
        stats["conflicts"],
        stats["restarts"],
        stats["learned"],
        stats["deleted"],
    )


@pytest.mark.parametrize("seed", sorted(PINNED_RANDOM))
def test_random_3cnf_search_identical_and_pinned(seed):
    cnf = random_3cnf(seed)
    status, _model, stats = assert_search_identical(cnf)
    assert as_tuple(status, stats) == PINNED_RANDOM[seed]


@pytest.mark.parametrize("seed", range(6, 16))
def test_random_3cnf_differential_unpinned(seed):
    assert_search_identical(random_3cnf(seed))


def test_lock_miter_correct_key_unsat_pinned():
    status, _model, stats = assert_search_identical(lock_miter())
    assert as_tuple(status, stats) == PINNED_MITER


def test_lock_miter_wrong_key_sat():
    status, model, _stats = assert_search_identical(lock_miter(wrong_bit=0))
    assert status == "sat"
    assert model  # distinguishing input exists and satisfies the miter


def test_clause_deletion_search_identical_and_pinned():
    cnf = random_3cnf(0, num_vars=150, num_clauses=645)
    status, _model, stats = assert_search_identical(cnf, conflict_limit=1600)
    assert as_tuple(status, stats) == PINNED_DELETION


def test_wide_learned_clauses_search_identical_and_pinned():
    cnf = random_3cnf(1, num_vars=500, num_clauses=2140)
    status, _model, stats = assert_search_identical(cnf, conflict_limit=500)
    assert as_tuple(status, stats) == PINNED_WIDE


def test_conflict_limit_unknown_exit_identical():
    """Both engines stop at the same search state when the limit trips."""
    cnf = random_3cnf(2, num_vars=150, num_clauses=645)
    status, model, stats = assert_search_identical(cnf, conflict_limit=1600)
    assert status == "unknown"
    assert model is None
    assert stats["conflicts"] == 1600
    assert stats["deleted"] > 0  # the limit struck after a reduce round


@pytest.mark.parametrize("seed", (1, 2, 4))
def test_assumptions_search_identical(seed):
    cnf = random_3cnf(seed)
    assert_search_identical(cnf, assumptions=[1, -2])
    assert_search_identical(cnf, assumptions=[-1, 3, 5])


def test_unsat_under_assumptions_identical():
    cnf = Cnf(num_vars=3)
    cnf.add_clause((1, 2))
    cnf.add_clause((-1, 3))
    status, _model, _stats = assert_search_identical(
        cnf, assumptions=[-1, -2]
    )
    assert status == "unsat"
    # and the same solver semantics as the reference suite's cases
    assert assert_search_identical(cnf, assumptions=[-2])[0] == "sat"


def test_tautology_and_duplicate_clause_handling_identical():
    for cls in (CdclSolver, CompiledCdclSolver):
        solver = cls(2)
        solver.add_clause([1, -1])  # tautology: dropped
        solver.add_clause([2, 2])  # duplicate literal: deduplicated
        result = solver.solve()
        assert result.sat and result.model[2], cls.__name__


def test_trivial_and_root_conflicts_identical():
    empty = Cnf(num_vars=4)
    empty.add_clause((1,))
    assert_search_identical(empty)
    contra = Cnf(num_vars=1)
    contra.add_clause((1,))
    contra.add_clause((-1,))
    assert assert_search_identical(contra)[0] == "unsat"


# --------------------------------------------------------------------------
# Dispatcher: knob, explicit engine, and cache-key participation.


def test_make_solver_routes_engines(monkeypatch):
    assert isinstance(make_solver(4, engine="compiled"), CompiledCdclSolver)
    assert isinstance(make_solver(4, engine="reference"), CdclSolver)
    # numpy is present in the test environment: auto takes the fast path
    assert isinstance(make_solver(4), CompiledCdclSolver)
    assert resolve_sat_engine() == "compiled"
    monkeypatch.setenv("REPRO_SAT_ENGINE", "reference")
    assert isinstance(make_solver(4), CdclSolver)
    assert resolve_sat_engine() == "reference"
    # the explicit argument wins over the environment knob
    assert isinstance(make_solver(4, engine="compiled"), CompiledCdclSolver)


def test_make_solver_rejects_unknown_engine(monkeypatch):
    with pytest.raises(ValueError):
        make_solver(4, engine="bogus")
    monkeypatch.setenv("REPRO_SAT_ENGINE", "not-an-engine")
    with pytest.raises(ValueError):
        solve_cnf(random_3cnf(1))


def test_solve_cnf_engine_param_matches(monkeypatch):
    cnf = random_3cnf(3)
    by_ref = solve_cnf(cnf, engine="reference")
    by_compiled = solve_cnf(cnf, engine="compiled")
    assert by_ref.status == by_compiled.status
    assert by_ref.model == by_compiled.model
    assert vars(by_ref.stats) == vars(by_compiled.stats)
    monkeypatch.setenv("REPRO_SAT_ENGINE", "reference")
    via_env = solve_cnf(cnf)
    assert vars(via_env.stats) == vars(by_ref.stats)


def test_sat_engine_participates_in_cache_keys(monkeypatch):
    spec = AttackCampaignSpec(
        benchmarks=("random:i10-o5-g90",),
        scenarios=("random",),
        split_layers=(4,),
        key_bits=(10,),
    )
    acell = spec.cells()[0]
    keys = {}
    for engine in ("compiled", "reference"):
        monkeypatch.setenv("REPRO_SAT_ENGINE", engine)
        payload = attack_payload(acell)
        assert payload["sat_engine"] == engine
        keys[engine] = spec_key(payload)
    assert keys["compiled"] != keys["reference"]


# --------------------------------------------------------------------------
# Reference branching heap (the scalar half of the shared EVSIDS order).


def test_var_order_heap_pops_max_activity_lowest_index_first():
    activity = [0.0, 2.0, 5.0, 5.0, 1.0]
    heap = VarOrderHeap(activity)
    heap.rebuild()
    assign = [-1] * 5
    # max activity wins; ties break toward the lowest variable index
    assert heap.pop_best(assign) == 2
    assert heap.pop_best(assign) == 3
    assert heap.pop_best(assign) == 1
    assert heap.pop_best(assign) == 4
    assert heap.pop_best(assign) == 0  # exhausted


def test_var_order_heap_discards_stale_entries():
    activity = [0.0, 1.0, 4.0]
    heap = VarOrderHeap(activity)
    heap.rebuild()
    # bump var 1 past var 2: the old entry for var 1 goes stale
    activity[1] = 9.0
    heap.push(1)
    assign = [-1, -1, -1]
    assert heap.pop_best(assign) == 1
    # assigned variables surface but are skipped
    assign[2] = 1
    assert heap.pop_best(assign) == 0
    assign[2] = -1
    heap.push(2)
    assert heap.pop_best(assign) == 2
