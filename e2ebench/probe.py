"""Machine-speed probe: times a fixed pure-Python loop on one CPU.

    python3 e2ebench/probe.py <cpu>

Pinned to *cpu*, it runs ``LOOP`` every ``PERIOD`` seconds and prints
``<perf_counter at the end> <duration>`` per sample until standard input
closes.  ``perf_counter`` is the system-wide monotonic clock, so the
samples line up with the timestamps of the process that started it.

This benchmark shares its host with other tenants, and their load
changes how fast our CPUs run by up to half within seconds; the
process's own CPU time inflates with it, so it cannot separate the two.
The probe runs on the same CPU as the measured process, so it slows down
with it; ``speed.py`` divides a measured interval by the probe's
samples from that interval.  Each sample costs the CPU about 1% of its
time.
"""

from __future__ import annotations

import os
import select
import sys
import time

PERIOD = 0.2

# Dictionary lookups over a working set larger than a core's private
# caches: their slowdown tracks the program's (object-heavy Python over
# large netlists) far better than a pure integer loop does, because
# neighbours' load costs memory bandwidth and shared cache as well as
# cycles.
_KEYS = [f"net{i}" for i in range(1 << 17)]
_TABLE = {key: i for i, key in enumerate(_KEYS)}
_WALK = [_KEYS[(i * 7919) % len(_KEYS)] for i in range(6_000)]


def spin() -> int:
    total = 0
    for key in _WALK:
        total += _TABLE[key]
    return total


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    try:
        # Preempt whatever runs on the CPU at once, so a sample measures
        # the CPU's speed, not how long the probe waited for it.
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
    except PermissionError:
        pass
    out = sys.stdout
    while not select.select([sys.stdin], [], [], PERIOD)[0]:
        start = time.perf_counter()
        spin()
        end = time.perf_counter()
        out.write(f"{end} {end - start}\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
