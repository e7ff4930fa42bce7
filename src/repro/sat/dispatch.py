"""SAT-engine selection (``REPRO_SAT_ENGINE`` knob).

Mirrors the simulation and layout dispatchers
(:mod:`repro.sim.bitparallel`, :mod:`repro.phys.dispatch`): every
:func:`repro.sat.solver.solve_cnf` call consults
:func:`resolve_sat_engine` at solve time and instantiates either the
pure-Python reference CDCL solver or the array-native compiled engine
of :mod:`repro.sat.compiled`.  **Search-identity is the contract**:
both engines walk the same decision sequence, learn the same clauses
and return the same model and :class:`~repro.sat.solver.SolverStats`
counters on every instance — enforced by the differential suite in
``tests/test_sat_compiled.py`` — so ``auto`` can default to the fast
path without changing any result.

The resolved engine participates in the campaign runner's attack-stage
cache key (:func:`repro.runner.stages.attack_payload`), so forcing an
engine re-keys the SAT-consuming stage instead of aliasing into entries
computed by the other engine.
"""

from __future__ import annotations

from repro.utils.env import env_choice

#: Valid knob values.
SAT_ENGINES = ("auto", "compiled", "reference")


def sat_engine_knob() -> str:
    """The raw ``REPRO_SAT_ENGINE`` choice (default ``auto``)."""
    return env_choice("REPRO_SAT_ENGINE", SAT_ENGINES, "auto")


def resolve_sat_engine() -> str:
    """The concrete engine the knob selects: compiled or reference.

    ``auto`` resolves to ``compiled`` (the engines are search-identical,
    so the fast path is always safe); ``reference`` survives as the
    differential test oracle.
    """
    return "reference" if sat_engine_knob() == "reference" else "compiled"


def make_solver(
    num_vars: int,
    conflict_limit: int | None = None,
    engine: str | None = None,
):
    """A CDCL solver of the selected engine.

    *engine* overrides the environment knob when given (``auto`` /
    ``compiled`` / ``reference``); ``None`` defers to
    :func:`resolve_sat_engine`.
    """
    if engine is not None and engine not in SAT_ENGINES:
        raise ValueError(
            f"unknown SAT engine {engine!r}; expected one of {SAT_ENGINES}"
        )
    resolved = engine if engine in ("compiled", "reference") else (
        resolve_sat_engine()
    )
    if resolved == "compiled":
        from repro.sat.compiled import CompiledCdclSolver

        return CompiledCdclSolver(num_vars, conflict_limit=conflict_limit)
    from repro.sat.solver import CdclSolver

    return CdclSolver(num_vars, conflict_limit=conflict_limit)
