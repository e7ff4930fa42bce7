"""Canonical JSON records for campaign results.

One serializer feeds every surface that emits per-cell results — the
``python -m repro.runner`` CLI ``--json`` dumps, the campaign service's
NDJSON streams and the CI service-verification layer — so "the HTTP
path is bit-identical to the CLI path" is checkable by construction:
both sides render through these functions and the comparison strips
only the volatile execution-accounting keys (:data:`VOLATILE_KEYS`).
A Tables I/II cell runs as its ``proximity`` attack cell;
:func:`cell_record` renders that outcome as the classic record.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Iterable, Mapping

from repro.runner.engine import AttackCellResult, CellResult

#: Record keys that legitimately differ between two executions of the
#: same cell (wall-clock, cache accounting); stripped by
#: :func:`canonical` before bit-identity comparisons.
VOLATILE_KEYS = ("seconds",)


def cell_record(result: CellResult) -> dict[str, Any]:
    """One classic ``{"cell", "run"}`` record (the pinned digests' shape)."""
    run = result.run
    return {
        "cell": result.cell.to_payload(),
        "run": {
            "benchmark": run.benchmark,
            "split_layer": run.split_layer,
            "ccr": asdict(run.ccr),
            "ccr_raw": asdict(run.ccr_raw),
            "hd_oer": asdict(run.hd_oer),
            "broken_nets": run.broken_nets,
            "visible_nets": run.visible_nets,
        },
        "seconds": result.seconds,
    }


def attack_record(result: AttackCellResult) -> dict[str, Any]:
    """One adversary-scenario cell as a JSON-ready record.

    Mirrors the historical ``attacks --json`` shape (cell payload plus
    the outcome's metric blocks) so existing consumers keep parsing;
    defended cells append a ``defense`` block (identity plus the
    arms-race verdict inputs) that undefended records omit entirely.
    """
    outcome = result.outcome
    record = {
        "cell": result.cell.to_payload(),
        "ccr": asdict(outcome.ccr),
        "pnr": asdict(outcome.pnr),
        "hd_oer": asdict(outcome.hd_oer) if outcome.hd_oer else None,
        "key_accuracy": outcome.key_accuracy,
        "hypotheses": outcome.hypotheses,
        "sim_engine": outcome.sim_engine,
        "seconds": result.seconds,
    }
    if result.cell.defense is not None:
        defense = dict(outcome.diagnostics.get("defense") or {})
        recovery = outcome.diagnostics.get("recovery") or {}
        defense["effective_regular_recovery"] = recovery.get(
            "effective_regular_recovery"
        )
        record["defense"] = defense
    return record


def result_record(result: CellResult | AttackCellResult) -> dict[str, Any]:
    """Dispatch on the result type (the service streams both kinds)."""
    if isinstance(result, AttackCellResult):
        return attack_record(result)
    return cell_record(result)


def canonical(record: Mapping[str, Any]) -> dict[str, Any]:
    """*record* without its volatile execution-accounting keys."""
    return {k: v for k, v in record.items() if k not in VOLATILE_KEYS}


def canonical_json(records: Iterable[Mapping[str, Any]]) -> str:
    """Deterministic JSON of *records* for bit-identity comparison."""
    return json.dumps(
        [canonical(r) for r in records], sort_keys=True, separators=(",", ":")
    )
