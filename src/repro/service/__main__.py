"""``python -m repro.service`` — service-side CI tooling.

Subcommands:

* ``ping``   — block until a server answers ``/healthz`` (boot gate);
* ``verify`` — assert the HTTP stream is bit-identical to the CLI path
  (optionally that a rerun is fully cache-served);
* ``warm``   — run one campaign twice against a live (cacheless)
  executor and assert the warm-worker pass is bit-identical with
  nonzero worker-cache hits (the persistent-runtime CI gate), then once
  more with only ``hd_seed`` shifted and assert it equals a cold
  in-process run with nonzero ``recovery`` hits;
* ``stress`` — self-hosted concurrency stress proving exactly-once
  computation and artifact integrity under concurrent tenants.

The server itself lives under the runner CLI:
``python -m repro.runner serve``.
"""

from __future__ import annotations

import argparse
import sys

from repro.utils.env import env_int, env_str

DEFAULT_URL = (
    f"http://{env_str('REPRO_SERVICE_HOST', '127.0.0.1')}:"
    f"{env_int('REPRO_SERVICE_PORT', 8321)}"
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Campaign-service verification tooling.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    ping = commands.add_parser(
        "ping", help="wait until the service answers /healthz"
    )
    ping.add_argument("--url", default=DEFAULT_URL)
    ping.add_argument("--timeout", type=float, default=60.0)

    verify = commands.add_parser(
        "verify",
        help="assert HTTP results are bit-identical to the CLI path",
    )
    verify.add_argument("--url", default=DEFAULT_URL)
    verify.add_argument(
        "--attacks",
        action="store_true",
        help="verify the attack-campaign path instead of the run path",
    )
    verify.add_argument(
        "--cli-cache-dir",
        default=None,
        help="cache directory for the CLI reference run "
        "(default: a throwaway temp dir, i.e. a cold reference)",
    )
    verify.add_argument("--workers", type=int, default=2)
    verify.add_argument(
        "--expect-cached",
        action="store_true",
        help="additionally assert the submission caused zero cache misses",
    )

    warm = commands.add_parser(
        "warm",
        help="run a campaign twice on one live (cacheless) executor and "
        "assert warm-worker results are bit-identical with nonzero "
        "worker-cache hits; then rerun it with hd_seed shifted and assert "
        "a cold in-process match with nonzero recovery hits",
    )
    warm.add_argument("--url", default=DEFAULT_URL)
    warm.add_argument(
        "--campaign",
        action="store_true",
        help="use the classic smoke campaign instead of the attack grid",
    )

    stress = commands.add_parser(
        "stress",
        help="self-hosted concurrent-duplicate-submission stress",
    )
    stress.add_argument("--clients", type=int, default=6)
    stress.add_argument("--workers", type=int, default=2)
    stress.add_argument("--rounds", type=int, default=2)

    args = parser.parse_args(argv)
    if args.command == "ping":
        from repro.service.client import ServiceClient

        health = ServiceClient(args.url).wait_healthy(timeout=args.timeout)
        print(f"[service] healthy at {args.url}: {health}")
        return 0
    if args.command == "verify":
        from repro.service.verify import run_verify

        return run_verify(
            args.url,
            attacks=args.attacks,
            cli_cache_dir=args.cli_cache_dir,
            workers=args.workers,
            expect_cached=args.expect_cached,
        )
    if args.command == "warm":
        from repro.service.verify import run_warm_verify

        return run_warm_verify(args.url, attacks=not args.campaign)
    from repro.service.stress import StressFailure, run_stress

    try:
        return run_stress(
            clients=args.clients, workers=args.workers, rounds=args.rounds
        )
    except StressFailure as exc:
        print(f"[cache-stress] FAIL: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
