"""Layout-engine selection (``REPRO_LAYOUT_ENGINE`` knob).

Mirrors the simulation dispatcher of :mod:`repro.sim.bitparallel`: the
physical-design entry points (``place`` / ``route_design`` /
``split_layout``) consult :func:`resolve_layout_engine` at call time
and run either the pure-Python reference implementations or the
array-native compiled engines of :mod:`repro.phys.compiled`.  Both
engines are **bit-identical** — same RNG streams, same operation order
per cell — enforced by the differential suite in
``tests/test_layout_compiled.py``, so ``auto`` can default to the fast
path without changing any result.

Because the engines are bit-identical, the choice stays out of the
campaign runner's cache keys (:func:`repro.runner.stages.layout_payload`):
an artifact laid out by either engine serves both.  The knob exists for
the differential tests and ``benchmarks/bench_layout.py``.
"""

from __future__ import annotations

from repro.utils.env import env_choice

#: Valid knob values.
LAYOUT_ENGINES = ("auto", "compiled", "reference")


def layout_engine_knob() -> str:
    """The raw ``REPRO_LAYOUT_ENGINE`` choice (default ``auto``)."""
    return env_choice("REPRO_LAYOUT_ENGINE", LAYOUT_ENGINES, "auto")


def resolve_layout_engine() -> str:
    """The concrete engine the knob selects: compiled or reference.

    ``auto`` resolves to ``compiled`` (the engines are bit-identical, so
    the fast path is always safe); ``reference`` survives as the
    differential test oracle.
    """
    return "reference" if layout_engine_knob() == "reference" else "compiled"
