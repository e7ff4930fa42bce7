"""``python -m repro.runner`` — regenerate tables/figures or run sweeps.

Subcommands:

* ``table1`` / ``table2`` — the Tables I/II grid (six ITC'99 benchmarks
  at M4/M6), printed against the paper's published rows;
* ``table3`` — the Table III grid (the proximity attack at M4 on three
  prior-art defenses and on the proposed lock, ISCAS-85), printed
  against the paper's averages;
* ``fig5``   — the Fig. 5 layout-cost grid (Prelift/M4/M6 deltas);
* ``sweep``  — a custom campaign: any benchmarks (ISCAS-85, ITC'99 or
  ``random:i<I>-o<O>-g<G>[-d<D>]`` descriptors) crossed with split
  layers and key sizes, optionally dumped to JSON;
* ``attacks`` — an adversary-scenario campaign: named threat models
  (``netflow``, ``learned``, ``proximity``, ``oracle-key``, ...)
  crossed with benchmarks, split layers, key sizes and — via
  ``--defenses`` — named defenses (``wire-lifting``, ``beol-restore``,
  ``routing-perturbation``; ``none`` is the undefended baseline), so
  one invocation runs a full defense x attack matrix; ``--smoke``
  runs the CI grid and checks the new engines beat the random floor,
  ``--matrix-smoke`` runs the defense matrix grid and checks every
  defense measurably weakens the attacks;
* ``smoke``  — one tiny end-to-end cell (the CI smoke job);
* ``serve``  — the campaign service: an asyncio HTTP job server
  multiplexing concurrent campaign submissions onto one worker pool
  and one shared artifact cache (see :mod:`repro.service`);
* ``cache``  — artifact-cache statistics / ``--clear``.

All experiment subcommands honour ``--workers`` (default: all CPUs, or
``REPRO_WORKERS``), ``--cache-dir`` (default: ``REPRO_CACHE_DIR`` or
``~/.cache/repro-splitlock``) and ``--no-cache``; ``table1``/``table2``/
``table3``/``fig5`` additionally honour the ``REPRO_FULL`` profile knob,
and all but ``table3`` the ``REPRO_SCALE`` knob.  The paper artefacts'
specs live in :mod:`repro.runner.profiles`, their renderers in
:mod:`repro.runner.paper_data`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.adversary.evaluate import grid_verdict
from repro.adversary.scenario import default_scenario_names
from repro.defense import matrix_verdict
from repro.runner.engine import (
    AttackCampaignResult,
    CampaignResult,
    run_attack_campaign,
    run_campaign,
    run_cost_campaign,
)
from repro.runner.paper_data import (
    render_fig5,
    render_table1,
    render_table2,
    render_table3,
    table12_rows,
    table3_grid,
)
from repro.runner.serialize import attack_record, cell_record
from repro.runner.profiles import (
    attack_smoke_campaign,
    current_profile,
    defense_smoke_campaign,
    smoke_campaign,
)
from repro.runner.spec import AttackCampaignSpec, AttackCellSpec, CampaignSpec
from repro.utils.artifact_cache import ArtifactCache
from repro.utils.tables import render_table


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel worker processes (default: all CPUs / REPRO_WORKERS)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="artifact cache directory (default: REPRO_CACHE_DIR or "
        "~/.cache/repro-splitlock)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="compute everything, do not read or write the artifact cache",
    )


def _dump_json(path: str, records: list) -> None:
    """Write serializer records — the same shape the service streams."""
    with open(path, "w") as handle:
        json.dump(records, handle, indent=2)
    print(f"[runner] wrote {path}", file=sys.stderr)


def _campaign(args: argparse.Namespace, spec: CampaignSpec) -> CampaignResult:
    result = run_campaign(
        spec,
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )
    stats = result.cache_stats()
    print(
        f"[runner] {len(result.cells)} cells in {result.wall_seconds:.1f}s "
        f"(cache: {stats.hits} hits, {stats.misses} misses)",
        file=sys.stderr,
    )
    return result


def _attack_campaign(
    args: argparse.Namespace, spec: AttackCampaignSpec | Sequence[AttackCellSpec]
) -> AttackCampaignResult:
    result = run_attack_campaign(
        spec,
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )
    stats = result.cache_stats()
    print(
        f"[runner] {len(result.cells)} attack cells in "
        f"{result.wall_seconds:.1f}s (cache: {stats.hits} hits, "
        f"{stats.misses} misses)",
        file=sys.stderr,
    )
    return result


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = table12_rows(_campaign(args, current_profile().table_campaign()))
    print(render_table1(rows))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    spec = current_profile().table_campaign()
    print(render_table2(table12_rows(_campaign(args, spec)), spec.hd_patterns))
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    result = _attack_campaign(args, current_profile().table3_cells())
    print(render_table3(table3_grid(result)))
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    data = run_cost_campaign(
        current_profile().fig5_cells(),
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )
    print(render_fig5(data))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = CampaignSpec(
        benchmarks=tuple(args.benchmarks.split(",")),
        split_layers=tuple(int(s) for s in args.splits.split(",")),
        key_bits=tuple(int(k) for k in args.key_bits.split(",")),
        seed=args.seed,
        scale=args.scale,
        hd_patterns=args.hd_patterns,
    )
    result = _campaign(args, spec)
    header = [
        "cell",
        "key log CCR",
        "key phy CCR",
        "regular CCR",
        "HD %",
        "OER %",
        "secs",
    ]
    body = [
        [
            r.cell.cell_id,
            f"{r.run.ccr.key_logical_ccr:.1f}",
            f"{r.run.ccr.key_physical_ccr:.1f}",
            f"{r.run.ccr.regular_ccr:.1f}",
            f"{r.run.hd_oer.hd_percent:.1f}",
            f"{r.run.hd_oer.oer_percent:.1f}",
            f"{r.seconds:.1f}",
        ]
        for r in result.cells
    ]
    print(render_table("Campaign sweep", header, body))
    if args.json:
        _dump_json(args.json, [cell_record(r) for r in result.cells])
    return 0


def _attack_table(result) -> str:
    header = [
        "cell",
        "defense",
        "scenario",
        "reg CCR",
        "key log",
        "key phy",
        "HD %",
        "OER %",
        "key acc",
        "secs",
    ]
    body = []
    for r in result.cells:
        outcome = r.outcome
        body.append(
            [
                r.cell.cell.cell_id,
                r.cell.defense.name if r.cell.defense else "-",
                outcome.scenario.name,
                f"{outcome.ccr.regular_ccr:.1f}",
                f"{outcome.ccr.key_logical_ccr:.1f}",
                f"{outcome.ccr.key_physical_ccr:.1f}",
                f"{outcome.hd_oer.hd_percent:.1f}" if outcome.hd_oer else "-",
                f"{outcome.hd_oer.oer_percent:.1f}" if outcome.hd_oer else "-",
                f"{outcome.key_accuracy:.2f}"
                if outcome.key_accuracy is not None
                else "-",
                f"{r.seconds:.1f}",
            ]
        )
    return render_table(
        "Adversary scenario campaign",
        header,
        body,
        note="reg CCR vs the random floor is the leakage signal; "
        "key CCR at ~50/0 is the paper's security claim",
    )


def _smoke_verdict(result) -> tuple[bool, list[str]]:
    """The shared smoke acceptance over this campaign's outcomes."""
    return grid_verdict(result.outcomes())


def _cmd_attacks(args: argparse.Namespace) -> int:
    if args.matrix_smoke:
        spec = defense_smoke_campaign()
    elif args.smoke:
        spec = attack_smoke_campaign()
    else:
        if not args.benchmarks:
            print(
                "error: attacks needs --benchmarks "
                "(or --smoke / --matrix-smoke)",
                file=sys.stderr,
            )
            return 2
        spec = AttackCampaignSpec(
            benchmarks=tuple(args.benchmarks.split(",")),
            scenarios=tuple(args.scenarios.split(","))
            if args.scenarios
            else default_scenario_names(),
            defenses=tuple(args.defenses.split(","))
            if args.defenses
            else ("none",),
            split_layers=tuple(int(s) for s in args.splits.split(",")),
            key_bits=tuple(int(k) for k in args.key_bits.split(",")),
            seed=args.seed,
            scale=args.scale,
            hd_patterns=args.hd_patterns,
        )
    result = _attack_campaign(args, spec)
    print(_attack_table(result))
    if args.json:
        _dump_json(args.json, [attack_record(r) for r in result.cells])
    if args.matrix_smoke:
        ok, problems = matrix_verdict(result.cells)
        for line in problems:
            print(f"[matrix] FAIL {line}", file=sys.stderr)
        print(
            "[matrix] every defense measurably weakens the attacks"
            if ok
            else "[matrix] acceptance FAILED",
            file=sys.stderr,
        )
        return 0 if ok else 1
    if args.smoke:
        ok, problems = _smoke_verdict(result)
        for line in problems:
            print(f"[smoke] FAIL {line}", file=sys.stderr)
        print(
            "[smoke] new engines beat the random floor on every cell"
            if ok
            else "[smoke] acceptance FAILED",
            file=sys.stderr,
        )
        return 0 if ok else 1
    return 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    result = _campaign(args, smoke_campaign())
    run = result.cells[0].run
    ok = (
        25.0 <= run.ccr.key_logical_ccr <= 75.0
        and run.ccr.key_physical_ccr <= 25.0
        and run.hd_oer.oer_percent > 90.0
    )
    print(
        render_table(
            "Campaign smoke cell",
            ["cell", "key log CCR", "key phy CCR", "HD %", "OER %", "ok"],
            [
                [
                    result.cells[0].cell.cell_id,
                    f"{run.ccr.key_logical_ccr:.1f}",
                    f"{run.ccr.key_physical_ccr:.1f}",
                    f"{run.hd_oer.hd_percent:.1f}",
                    f"{run.hd_oer.oer_percent:.1f}",
                    "yes" if ok else "NO",
                ]
            ],
            note="expected: key CCR at the random-guessing floor, OER ~100",
        )
    )
    if args.json:
        _dump_json(args.json, [cell_record(r) for r in result.cells])
    return 0 if ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    # Lazy import: the service stack (asyncio server, job manager) is
    # only pulled in when actually serving.
    from repro.service import ServiceConfig, serve_forever

    config = ServiceConfig.from_env(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        max_jobs=args.max_jobs,
    )
    return serve_forever(config)


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ArtifactCache() if args.cache_dir is None else ArtifactCache(args.cache_dir)
    if args.clear:
        removed = cache.clear()
        print(f"[runner] cleared {removed} cached artifacts from {cache.root}")
        return 0
    print(
        render_table(
            f"Artifact cache at {cache.root}",
            ["entries", "MiB"],
            [[cache.entry_count(), f"{cache.size_bytes() / 2**20:.1f}"]],
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description="Parallel campaign runner for the SplitLock reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, doc in (
        ("table1", _cmd_table1, "regenerate the Table I CCR grid"),
        ("table2", _cmd_table2, "regenerate the Table II HD/OER grid"),
        ("table3", _cmd_table3, "regenerate the Table III prior-art grid"),
        ("fig5", _cmd_fig5, "regenerate the Fig. 5 layout-cost grid"),
        ("smoke", _cmd_smoke, "run one tiny end-to-end cell (CI smoke)"),
    ):
        cmd = sub.add_parser(name, help=doc)
        _add_common(cmd)
        if name == "smoke":
            cmd.add_argument(
                "--json", default=None, help="dump results to this path"
            )
        cmd.set_defaults(func=func)

    serve = sub.add_parser(
        name="serve",
        help="run the campaign service (async multi-tenant job server)",
    )
    _add_common(serve)
    serve.add_argument(
        "--host",
        default=None,
        help="bind address (default: REPRO_SERVICE_HOST or 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port, 0 for ephemeral (default: REPRO_SERVICE_PORT "
        "or 8321)",
    )
    serve.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="retained job limit (default: REPRO_SERVICE_MAX_JOBS or 256)",
    )
    serve.set_defaults(func=_cmd_serve)

    sweep = sub.add_parser(name="sweep", help="run a custom campaign grid")
    _add_common(sweep)
    sweep.add_argument(
        "--benchmarks",
        required=True,
        help="comma-separated: ISCAS-85/ITC'99 names or "
        "random:i<I>-o<O>-g<G>[-d<D>] descriptors",
    )
    sweep.add_argument("--splits", default="4,6", help="comma-separated layers")
    sweep.add_argument("--key-bits", default="128", help="comma-separated sizes")
    sweep.add_argument("--seed", type=int, default=2019)
    sweep.add_argument("--scale", type=float, default=None)
    sweep.add_argument("--hd-patterns", type=int, default=16_384)
    sweep.add_argument("--json", default=None, help="dump results to this path")
    sweep.set_defaults(func=_cmd_sweep)

    attacks = sub.add_parser(
        name="attacks",
        help="run an adversary-scenario campaign (threat-model grid)",
    )
    _add_common(attacks)
    attacks.add_argument(
        "--smoke",
        action="store_true",
        help="run the CI smoke grid and verify the new engines beat the "
        "random floor on every cell",
    )
    attacks.add_argument(
        "--matrix-smoke",
        action="store_true",
        help="run the CI defense x attack matrix grid and verify every "
        "defense measurably weakens the attacks",
    )
    attacks.add_argument(
        "--benchmarks",
        default=None,
        help="comma-separated benchmark names/descriptors",
    )
    attacks.add_argument(
        "--scenarios",
        default=None,
        help="comma-separated scenario names (default: "
        "netflow,learned,proximity,random or REPRO_ATTACK_ENGINE)",
    )
    attacks.add_argument(
        "--defenses",
        default=None,
        help="comma-separated defense names ('none' is the undefended "
        "baseline; default: none, or REPRO_DEFENSE_SCHEME)",
    )
    attacks.add_argument("--splits", default="4", help="comma-separated layers")
    attacks.add_argument("--key-bits", default="128", help="comma-separated sizes")
    attacks.add_argument("--seed", type=int, default=2019)
    attacks.add_argument("--scale", type=float, default=None)
    attacks.add_argument("--hd-patterns", type=int, default=16_384)
    attacks.add_argument("--json", default=None, help="dump results to this path")
    attacks.set_defaults(func=_cmd_attacks)

    cache = sub.add_parser(name="cache", help="artifact-cache stats / clear")
    cache.add_argument("--cache-dir", default=None)
    cache.add_argument("--clear", action="store_true")
    cache.set_defaults(func=_cmd_cache)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError) as exc:
        # Bad spec input (unknown benchmark, malformed descriptor,
        # rejected env knob): a clean one-line error, not a traceback.
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
