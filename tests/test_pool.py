"""The campaign worker pool (:class:`repro.runner.engine.CampaignExecutor`).

One duplex pipe per worker, results read by the submitting event loop:
these tests pin what callers rely on — submission-order results and
fail-fast, cancellation (a queued task never runs, a running one frees
its worker), a worker killed mid-cell failing only that cell by name
and being respawned, shutdown leaving no worker behind, and the
``spawn`` fallback context.

The toy tasks below are module-level, so pool workers import them by
reference like any task function.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.runner import engine
from repro.runner.engine import CampaignExecutor, CellExecutionError
from repro.runner.grid import execute_bundle
from repro.runner.serialize import canonical_json, result_record
from repro.runner.spec import CellSpec, proximity_cell
from tests.conftest import per_cell_records


def echo(task, cache_dir, use_cache):
    """Sleep ``task[0]`` seconds, return ``task[1]``."""
    delay, value = task
    time.sleep(delay)
    return value


def mark(task, cache_dir, use_cache):
    """Record that the task ran by creating the file *task*; ``None``
    raises instead."""
    if task is None:
        raise ValueError("bad task")
    Path(task).write_text("ran")
    return task


def worker_pid(task, cache_dir, use_cache):
    time.sleep(task)
    return os.getpid()


def named(*ids: str) -> list[SimpleNamespace]:
    """Stand-ins for cells: all the pool reads of a cell is its id."""
    return [SimpleNamespace(cell_id=cell_id) for cell_id in ids]


def _alive(pid: int) -> bool:
    return Path(f"/proc/{pid}").exists()


def test_map_returns_results_in_submission_order():
    tasks = [(0.3, "a"), (0.0, "b"), (0.1, "c"), (0.0, "d")]
    with CampaignExecutor(2, use_cache=False) as executor:
        assert executor.map(echo, tasks, "abcd") == ["a", "b", "c", "d"]


def test_map_fails_fast_naming_the_cell_and_cancels_queued_tasks(tmp_path):
    """One worker: the failure cancels every task queued behind it
    before the freed worker takes the next, so none of them runs."""
    marks = [str(tmp_path / f"m{i}") for i in range(3)]
    with CampaignExecutor(1, use_cache=False) as executor:
        with pytest.raises(CellExecutionError) as excinfo:
            executor.map(mark, [None, *marks], named("bad", "m0", "m1", "m2"))
    assert excinfo.value.cell_id == "bad"
    assert "ValueError: bad task" in str(excinfo.value)
    assert [Path(m).exists() for m in marks] == [False, False, False]


def test_tasks_queued_behind_a_failure_still_run(tmp_path):
    """Without ``map`` nothing cancels them: the tasks queued behind a
    failed one (the service's cells of other jobs) run, in order."""
    marks = [str(tmp_path / f"m{i}") for i in range(2)]

    async def body(executor):
        bad = executor.submit(mark, None, "bad")
        others = [executor.submit(mark, m, m) for m in marks]
        with pytest.raises(ValueError, match="bad task"):
            await bad
        return [await future for future in others]

    with CampaignExecutor(1, use_cache=False) as executor:
        assert asyncio.run(body(executor)) == marks
        assert executor.stats() == {"workers": 1, "restarts": 0, "queued": 0}


def test_cancelled_queued_task_never_runs(tmp_path):
    marker = tmp_path / "queued"

    async def body(executor):
        running = executor.submit(echo, (0.3, "first"), "first")
        queued = executor.submit(mark, str(marker), "queued")
        queued.cancel()
        assert await running == "first"
        assert executor.stats()["queued"] == 0
        return await executor.submit(echo, (0.0, "next"), "next")

    with CampaignExecutor(1, use_cache=False) as executor:
        assert asyncio.run(body(executor)) == "next"
    assert not marker.exists()


def test_cancelled_running_task_frees_its_worker():
    async def body(executor):
        first = await executor.submit(worker_pid, 0.0, "warm")
        running = executor.submit(worker_pid, 0.5, "running")
        running.cancel()
        start = time.perf_counter()
        second = await executor.submit(worker_pid, 0.0, "next")
        return first, second, time.perf_counter() - start

    with CampaignExecutor(1, use_cache=False) as executor:
        first, second, waited = asyncio.run(body(executor))
        assert executor.stats()["restarts"] == 0
    assert first == second  # the same worker, once its task finished
    assert waited > 0.3


def test_worker_killed_mid_cell_fails_that_cell_and_is_respawned():
    async def body(executor):
        [pid] = [w.process.pid for w in executor._procs]
        [cell] = named("victim-cell")
        victim = executor.submit(echo, (30.0, "never"), cell)
        await asyncio.sleep(0.2)
        os.kill(pid, signal.SIGKILL)
        with pytest.raises(CellExecutionError) as excinfo:
            await asyncio.wait_for(victim, timeout=30)
        after = await executor.submit(worker_pid, 0.0, "next")
        return pid, excinfo.value, after

    with CampaignExecutor(1, use_cache=False) as executor:
        executor.map(echo, [(0.0, "warm")], ["warm"])
        pid, error, after = asyncio.run(body(executor))
        assert executor.stats() == {"workers": 1, "restarts": 1, "queued": 0}
    assert error.cell_id == "victim-cell"
    assert f"worker process {pid} died" in str(error)
    assert after != pid


def test_shutdown_leaves_no_child_process():
    executor = CampaignExecutor(2, use_cache=False)
    pids = set(executor.map(worker_pid, [0.2, 0.2], ["a", "b"]))
    assert len(pids) == 2 and all(map(_alive, pids))
    executor.shutdown()
    assert not any(map(_alive, pids))
    assert multiprocessing.active_children() == []
    with pytest.raises(RuntimeError, match="shut down"):
        executor.map(echo, [(0.0, "late")], ["late"])


def test_campaign_executor_uses_no_helper_thread():
    before = threading.active_count()
    with CampaignExecutor(2, use_cache=False) as executor:
        executor.map(echo, [(0.1, 1), (0.1, 2)], "ab")
        assert threading.active_count() == before


def test_spawn_fallback_runs_a_bundle(monkeypatch):
    monkeypatch.setattr(
        engine.multiprocessing, "get_all_start_methods", lambda: ["fork", "spawn"]
    )
    cell = proximity_cell(
        CellSpec(
            benchmark="random:i8-o4-g60",
            split_layer=4,
            key_bits=8,
            hd_patterns=64,
            max_candidates=20,
        )
    )
    with CampaignExecutor(1, use_cache=False) as executor:
        assert executor._context.get_start_method() == "spawn"
        [[results]] = executor.map(execute_bundle, [[[cell]]], [cell])
    assert canonical_json([result_record(r) for r in results]) == (
        per_cell_records([cell])
    )
