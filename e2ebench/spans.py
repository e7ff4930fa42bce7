"""Span tracing from outside the program: wrappers around layer entry points.

:func:`install` replaces each traced function at *every* lookup site —
its defining module, every ``repro`` module that imported it by name
(``from repro.locking.atpg_lock import atpg_lock``), and for methods the
class — so a call is recorded whichever name it goes through.  Modules
are taken from ``sys.modules``: ``import repro.locking.atpg_lock as m``
would bind the re-exported *function*, not the module.

Each call becomes one span ``[id, name, parent, start, end, run id]``
kept in memory; :meth:`Tracer.dump` writes them out once the run has ended.
Counts the per-layer table needs (fault candidates examined, flow arcs,
key hypotheses) are read from the same calls' arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: (span name, defining module, attribute path) of every traced entry point.
TARGETS = (
    ("locking.atpg_lock", "repro.locking.atpg_lock", "atpg_lock"),
    ("locking.affected_sinks", "repro.locking.partition", "affected_sinks"),
    ("attacks.proximity_attack", "repro.attacks.proximity", "proximity_attack"),
    ("attacks.commit_edge", "repro.attacks.proximity", "commit_edge"),
    ("adversary.run_scenario", "repro.adversary.evaluate", "run_scenario"),
    ("adversary.build_candidates", "repro.adversary.features", "build_candidates"),
    ("adversary.min_cost_flow", "repro.adversary.netflow", "MinCostFlow.solve"),
    ("adversary.train_scorer", "repro.adversary.learned", "train_scorer"),
    ("adversary.oracle_key_search", "repro.adversary.evaluate", "oracle_key_search"),
    ("defense.apply_defense", "repro.defense.engine", "apply_defense"),
    ("phys.build_locked_layout", "repro.phys.layout", "build_locked_layout"),
    ("metrics.compute_hd_oer", "repro.metrics.hd_oer", "compute_hd_oer"),
    ("metrics.compute_ccr", "repro.metrics.ccr", "compute_ccr"),
    (
        "sim.simulate_batch_array",
        "repro.sim.compiled",
        "CompiledCircuit.simulate_batch_array",
    ),
)

ROOT = "runner.campaign"


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.sites: dict[str, list[str]] = {}
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called *name*."""
        span = [len(self.spans), name, self._stack[-1] if self._stack else None,
                time.perf_counter(), None, self.run_id]
        self.spans.append(span)
        self._stack.append(span[0])
        try:
            return fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["id", "name", "parent", "start", "end", "run_id"],
                    "spans": self.spans,
                    "counts": self.counts,
                    "sites": self.sites,
                },
                handle,
            )


def _observe_lock(tracer: Tracer, args, result) -> None:
    report = result[1]
    tracer.count("locking.candidates_examined", report.candidates_examined)
    tracer.count("locking.selected", len(report.selected_faults))


def _observe_flow(tracer: Tracer, args, result) -> None:
    tracer.count("adversary.flow_arcs", len(args[0].to) // 2)


def _observe_scenario(tracer: Tracer, args, result) -> None:
    tracer.count("adversary.hypotheses", result.hypotheses or 0)


_OBSERVERS = {
    "locking.atpg_lock": _observe_lock,
    "adversary.min_cost_flow": _observe_flow,
    "adversary.run_scenario": _observe_scenario,
}


def install(tracer: Tracer) -> None:
    """Wrap every target at every lookup site found in ``sys.modules``."""
    for name, module_name, path in TARGETS:
        importlib.import_module(module_name)
        owner = sys.modules[module_name]
        *owner_path, attribute = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        original = getattr(owner, attribute)
        wrapped = tracer.wrap(name, original)
        setattr(owner, attribute, wrapped)
        sites = [f"{module_name}:{path}"]
        if not owner_path:
            for other_name, module in list(sys.modules.items()):
                if not other_name.startswith("repro") or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        sites.append(f"{other_name}:{key}")
        tracer.sites[name] = sorted(set(sites))


def layer_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds and self seconds.

    Self time is a span's duration minus the time its direct children
    cover (children of one span never overlap: the run is serial).
    """
    child_time = [0.0] * len(tracer.spans)
    for _, _, parent, start, end, _ in tracer.spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for span_id, name, _, start, end, _ in tracer.spans:
        entry = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += end - start - child_time[span_id]
    return totals
