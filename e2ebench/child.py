"""One cold pass of a serial workload, in a fresh interpreter.

    python3 e2ebench/child.py <workload> <seed> setup|run|trace

The child imports the program, builds the workload's cells and prints
``ready`` (the end of set-up).  ``setup`` exits there; ``run`` then runs
the campaign serially with no artifact cache, checks the results and
prints ``result <json>`` as its last line; ``trace`` does the same with
layer spans recorded (see ``spans.py``) and written under
``.e2ebench/``.  ``run.py`` launches it; it is not meant to be run by
hand.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def main() -> int:
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    from repro.runner.engine import run_attack_campaign, run_campaign
    from repro.runner.serialize import result_record

    if workload == workloads.TABLE12:
        cells = workloads.table12_cells(seed)
        run = run_campaign
    else:
        smoke, matrix = workloads.attack_grid_cells(seed)
        cells = smoke + matrix
        run = run_attack_campaign
    print("ready", flush=True)
    if mode == "setup":
        return 0

    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer(f"{workload}/{seed}")
        spans.install(tracer)
        run = functools.partial(tracer.call, spans.ROOT, run)
    start = time.perf_counter()
    result = run(cells, workers=1, use_cache=False)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digests = [
        [r.cell.cell_id, workloads.record_digest(result_record(r))]
        for r in result.cells
    ]
    if workload == workloads.TABLE12:
        problems = workloads.check_table12(result.cells)
    else:
        problems = workloads.check_attack_grid(
            result.cells[: len(smoke)], result.cells[len(smoke) :]
        )
    out = {
        "start": start,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
        "digests": digests,
    }
    if tracer is not None:
        out_dir = Path(".e2ebench")
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{workload}-{seed}.json")
        out["layers"] = spans.layer_totals(tracer)
        out["counts"] = tracer.counts
    print("result " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
