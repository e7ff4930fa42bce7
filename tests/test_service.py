"""Campaign service: job state machine, spec envelopes, HTTP end to end.

The load-bearing guarantees under test:

* the job state machine only walks its allowed edges
  (``queued → running → done | failed | cancelled``);
* spec envelopes survive a JSON round trip for both campaign kinds;
* results streamed over real HTTP are **bit-identical** to the same
  spec executed in process (the CLI path), modulo wall-clock keys;
* identical cells submitted by concurrent jobs are computed exactly
  once (the in-flight dedupe table) yet delivered to every submitter;
* a connection stays open only while each request asks for
  ``Connection: keep-alive``; any other request gets the one-shot
  ``Connection: close`` answer, byte for byte.

The end-to-end tests talk real HTTP to a :class:`ServiceThread` on an
ephemeral localhost port — the same harness CI's service jobs use.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.server as server_module
from repro.runner import run_attack_campaign, run_campaign
from repro.runner.serialize import attack_record, canonical_json, cell_record
from repro.runner.spec import (
    AttackCampaignSpec,
    CampaignSpec,
    parse_spec_payload,
    spec_payload,
)
from repro.service import (
    InvalidTransition,
    Job,
    JobState,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
)
from repro.service.jobs import CELL_PENDING, TERMINAL_STATES, JobManager, cell_key
from repro.service.verify import cache_problem, reuse_problem

#: Tiny two-cell grid for the HTTP round trips (seconds of runtime).
E2E = CampaignSpec(
    benchmarks=("random:i8-o4-g60",),
    split_layers=(4, 6),
    key_bits=(10,),
    scale=1.0,
    hd_patterns=256,
    max_candidates=60,
)

ATTACK_E2E = AttackCampaignSpec(
    benchmarks=("random:i8-o4-g60",),
    scenarios=("netflow", "random"),
    split_layers=(4,),
    key_bits=(10,),
    scale=1.0,
    hd_patterns=256,
    max_candidates=60,
)

#: Defense x attack matrix over the same layout: two defense axis
#: points, one scenario — four cells, the service's matrix-job shape.
MATRIX_E2E = AttackCampaignSpec(
    benchmarks=("random:i8-o4-g60",),
    scenarios=("netflow",),
    defenses=("none", "wire-lifting-lite", "routing-perturbation"),
    split_layers=(4,),
    key_bits=(10,),
    scale=1.0,
    hd_patterns=256,
    max_candidates=60,
)


def _job(n_cells: int = 2) -> Job:
    cells = E2E.cells() * (n_cells // 2 + 1)
    return Job(id="t1", kind="campaign", spec=E2E, cells=cells[:n_cells])


# ---------------------------------------------------------------------------
# Job state machine


def test_job_walks_the_happy_path():
    job = _job()
    assert job.state is JobState.QUEUED and not job.is_terminal
    assert job.cell_states == [CELL_PENDING, CELL_PENDING]
    job.transition(JobState.RUNNING)
    assert job.started is not None and job.finished is None
    job.transition(JobState.DONE)
    assert job.is_terminal and job.finished is not None
    assert job.summary()["wall_seconds"] >= 0


def test_job_rejects_forbidden_edges():
    job = _job()
    with pytest.raises(InvalidTransition, match="queued -> done"):
        job.transition(JobState.DONE)
    with pytest.raises(InvalidTransition):
        job.transition(JobState.FAILED)
    job.transition(JobState.RUNNING)
    with pytest.raises(InvalidTransition, match="running -> queued"):
        job.transition(JobState.QUEUED)
    job.transition(JobState.FAILED)
    for sink_escape in JobState:
        with pytest.raises(InvalidTransition):
            job.transition(sink_escape)


def test_job_queued_can_be_cancelled_directly():
    job = _job()
    job.transition(JobState.CANCELLED)
    assert job.state is JobState.CANCELLED and job.is_terminal


def test_job_summary_counts_cells():
    job = _job()
    job.cell_states[0] = "done"
    summary = job.summary()
    assert summary["cells"] == {
        "total": 2,
        "pending": 1,
        "done": 1,
        "failed": 0,
        "cancelled": 0,
    }


def test_eviction_drops_the_oldest_terminal_jobs_first():
    manager = JobManager(executor=None, max_jobs=3)

    def add(job_id: str, state: JobState) -> list[str]:
        manager.jobs[job_id] = Job(
            id=job_id, kind="campaign", spec=E2E, cells=E2E.cells(), state=state
        )
        manager._evict_old_jobs()
        return list(manager.jobs)

    assert add("j0", JobState.DONE) == ["j0"]
    assert add("j1", JobState.RUNNING) == ["j0", "j1"]
    assert add("j2", JobState.FAILED) == ["j0", "j1", "j2"]
    assert add("j3", JobState.RUNNING) == ["j1", "j2", "j3"]
    assert add("j4", JobState.QUEUED) == ["j1", "j3", "j4"]
    # nothing terminal left: the manager holds one job too many
    assert add("j5", JobState.QUEUED) == ["j1", "j3", "j4", "j5"]
    manager.jobs["j3"].state = JobState.CANCELLED
    manager.jobs["j1"].state = JobState.DONE
    assert add("j6", JobState.QUEUED) == ["j4", "j5", "j6"]


def test_eviction_stops_scanning_at_the_excess(monkeypatch):
    manager = JobManager(executor=None, max_jobs=99)
    for index in range(100):
        job_id = f"j{index}"
        manager.jobs[job_id] = Job(
            id=job_id, kind="campaign", spec=E2E, cells=E2E.cells(),
            state=JobState.DONE,
        )
    checks = []
    monkeypatch.setattr(
        Job,
        "is_terminal",
        property(lambda job: checks.append(job.id) or job.state in TERMINAL_STATES),
    )
    manager._evict_old_jobs()
    assert checks == ["j0"]
    assert len(manager.jobs) == 99 and "j0" not in manager.jobs


def test_cell_key_is_the_cache_content_key():
    a, b = E2E.cells()
    assert cell_key(a) != cell_key(b)  # different split layers
    assert cell_key(a) == cell_key(E2E.cells()[0])  # pure function of spec
    attack_cells = ATTACK_E2E.cells()
    assert len({cell_key(c) for c in attack_cells}) == len(attack_cells)


# ---------------------------------------------------------------------------
# Spec envelope round trip


@pytest.mark.parametrize(
    "spec",
    [E2E, ATTACK_E2E, MATRIX_E2E],
    ids=["campaign", "attacks", "matrix"],
)
def test_spec_payload_round_trips_through_json(spec):
    envelope = json.loads(json.dumps(spec_payload(spec)))
    assert parse_spec_payload(envelope) == spec


def test_parse_spec_payload_rejects_bad_envelopes():
    with pytest.raises(ValueError, match="kind"):
        parse_spec_payload({"spec": {}})
    with pytest.raises(ValueError, match="kind"):
        parse_spec_payload({"kind": "nope", "spec": {}})
    with pytest.raises(ValueError):
        parse_spec_payload({"kind": "campaign", "spec": {"benchmarks": 3}})
    with pytest.raises(TypeError):
        spec_payload("not a spec")


def test_service_config_validation(monkeypatch):
    with pytest.raises(ValueError, match="port"):
        ServiceConfig(port=70000)
    with pytest.raises(ValueError, match="workers"):
        ServiceConfig(workers=0)
    with pytest.raises(ValueError, match="max_jobs"):
        ServiceConfig(max_jobs=0)
    monkeypatch.setenv("REPRO_SERVICE_HOST", "0.0.0.0")
    monkeypatch.setenv("REPRO_SERVICE_PORT", "9000")
    monkeypatch.setenv("REPRO_SERVICE_MAX_JOBS", "7")
    config = ServiceConfig.from_env()
    assert (config.host, config.port, config.max_jobs) == ("0.0.0.0", 9000, 7)
    # explicit arguments beat the environment
    assert ServiceConfig.from_env(port=0).port == 0


# ---------------------------------------------------------------------------
# End to end over real HTTP


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = ServiceConfig(
        port=0,
        workers=2,
        cache_dir=tmp_path_factory.mktemp("service-cache"),
    )
    with ServiceThread(config) as thread:
        yield thread


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.url)


def _streamed(client, spec_or_envelope):
    summary = client.submit(spec_or_envelope)
    return (summary, *_streamed_job(client, summary["id"]))


def _streamed_job(client, job_id):
    results, errors, done = [], [], None
    for record in client.stream(job_id):
        if record["event"] == "result":
            results.append(record)
        elif record["event"] == "error":
            errors.append(record)
        else:
            done = record["job"]
    results.sort(key=lambda r: r["index"])
    return results, errors, done


def test_http_stream_matches_in_process_execution(client, server):
    summary, results, errors, done = _streamed(client, E2E)
    assert summary["kind"] == "campaign" and summary["cells"]["total"] == 2
    assert not errors and done["state"] == "done"
    assert [r["index"] for r in results] == [0, 1]

    reference = run_campaign(E2E, workers=1, use_cache=False)
    expected = [cell_record(r) for r in reference.cells]
    stripped = [
        {k: v for k, v in r.items() if k not in ("event", "index")}
        for r in results
    ]
    assert canonical_json(stripped) == canonical_json(expected)

    # the buffered-results endpoint agrees with the stream
    payload = client.results(summary["id"])
    assert payload["partial"] is False
    assert canonical_json(
        [
            {k: v for k, v in r.items() if k not in ("event", "index")}
            for r in payload["results"]
        ]
    ) == canonical_json(expected)


def test_attack_job_over_http(client):
    summary, results, errors, done = _streamed(client, ATTACK_E2E)
    assert summary["kind"] == "attacks"
    assert not errors and done["state"] == "done"
    assert {r["cell"]["scenario"]["name"] for r in results} == {
        "netflow",
        "random",
    }
    assert all("ccr" in r and "pnr" in r for r in results)


def test_matrix_job_matches_in_process_execution(client):
    summary, results, errors, done = _streamed(client, MATRIX_E2E)
    assert summary["kind"] == "attacks"
    assert summary["cells"]["total"] == 3
    assert not errors and done["state"] == "done"

    reference = run_attack_campaign(MATRIX_E2E, workers=1, use_cache=False)
    expected = [attack_record(r) for r in reference.cells]
    stripped = [
        {k: v for k, v in r.items() if k not in ("event", "index")}
        for r in results
    ]
    assert canonical_json(stripped) == canonical_json(expected)
    # defended records carry the arms-race block, the baseline does not
    by_defense = {
        (r["cell"].get("defense") or {}).get("name"): r for r in results
    }
    assert set(by_defense) == {None, "wire-lifting-lite",
                               "routing-perturbation"}
    assert "defense" not in by_defense[None]
    assert (
        by_defense["wire-lifting-lite"]["defense"]["protected_nets"] > 0
    )


def test_concurrent_identical_jobs_are_deduped(client):
    fresh = CampaignSpec(
        benchmarks=("random:i9-o4-g70",),
        split_layers=(4, 6),
        key_bits=(10,),
        scale=1.0,
        hd_patterns=256,
        max_candidates=60,
    )
    before = client.metrics()
    first = client.submit(fresh)
    second = client.submit(fresh)  # submitted while the first is in flight
    assert first["id"] != second["id"]
    records = {}
    for summary in (first, second):
        streamed = [
            r for r in client.stream(summary["id"]) if r["event"] == "result"
        ]
        streamed.sort(key=lambda r: r["index"])
        records[summary["id"]] = canonical_json(
            [
                {k: v for k, v in r.items() if k not in ("event", "index")}
                for r in streamed
            ]
        )
    assert records[first["id"]] == records[second["id"]]
    after = client.metrics()
    unique = len(fresh.cells())
    assert (
        after["cells"]["computed"] - before["cells"]["computed"] == unique
    )
    assert (
        after["cells"]["deduped"] - before["cells"]["deduped"] == unique
    )
    # exactly-once at the artifact level too: one attack-stage store each
    attack_stage = after["cache"]["stages"]["attack"]
    assert attack_stage["misses"] == attack_stage["stores"]


def _stream_records(client, job_id) -> list[dict]:
    """A job's streamed result records in index order, stream keys cut."""
    streamed = [r for r in client.stream(job_id) if r["event"] == "result"]
    streamed.sort(key=lambda r: r["index"])
    return [
        {k: v for k, v in r.items() if k not in ("event", "index")}
        for r in streamed
    ]


def test_campaign_and_proximity_attack_jobs_share_cells(client):
    """A campaign cell runs as its proximity attack cell, so an attacks
    job naming ``proximity`` on the same grid joins its computations;
    each job still streams its own record shape."""
    grid = dict(
        benchmarks=("random:i9-o5-g75",),
        split_layers=(4, 6),
        key_bits=(10,),
        scale=1.0,
        hd_patterns=256,
        max_candidates=60,
    )
    campaign = CampaignSpec(**grid)
    attacks = AttackCampaignSpec(scenarios=("proximity",), **grid)
    before = client.metrics()
    first = client.submit(campaign)
    second = client.submit(attacks)  # while the first is in flight
    campaign_records = _stream_records(client, first["id"])
    attack_records = _stream_records(client, second["id"])
    after = client.metrics()

    unique = len(campaign.cells())
    assert after["cells"]["computed"] - before["cells"]["computed"] == unique
    assert after["cells"]["deduped"] - before["cells"]["deduped"] == unique
    stage_before = before["cache"]["stages"].get("attack", {})
    stage_after = after["cache"]["stages"]["attack"]
    assert stage_after["stores"] - stage_before.get("stores", 0) == unique

    reference = run_campaign(campaign, workers=1, use_cache=False)
    assert canonical_json(campaign_records) == canonical_json(
        [cell_record(r) for r in reference.cells]
    )
    attack_reference = run_attack_campaign(attacks, workers=1, use_cache=False)
    assert canonical_json(attack_records) == canonical_json(
        [attack_record(r) for r in attack_reference.cells]
    )


def test_cancel_pending_job(client):
    spec = CampaignSpec(
        benchmarks=("random:i10-o5-g80", "random:i11-o5-g85"),
        split_layers=(4, 6),
        key_bits=(10,),
        scale=1.0,
        hd_patterns=256,
        max_candidates=60,
    )
    summary = client.submit(spec)
    response = client.cancel(summary["id"])
    assert response["cancelled"] is True
    final = client.wait(summary["id"], timeout=120)
    assert final["state"] == "cancelled"
    assert final["cells"]["cancelled"] > 0
    # cancelling a finished job is a no-op
    assert client.cancel(summary["id"])["cancelled"] is False


def test_failed_cell_is_named_and_spares_the_rest(client):
    """One bad cell fails alone: its sibling streams, the executor lives on."""
    spec = CampaignSpec(
        benchmarks=("random:i8-o4-g60", "random:i6-o4-g40"),
        split_layers=(4,),
        key_bits=(64,),  # more key-gates than the second core has nets
        scale=1.0,
        hd_patterns=256,
        max_candidates=60,
    )
    good, bad = spec.cells()
    before = client.metrics()
    _, results, errors, done = _streamed(client, spec)
    after = client.metrics()
    assert [r["index"] for r in results] == [0]
    assert results[0]["cell"] == good.to_payload()
    assert [e["index"] for e in errors] == [1]
    assert bad.cell_id in errors[0]["error"]
    assert done["state"] == "failed"
    assert after["cells"]["failed"] - before["cells"]["failed"] == 1
    # The same executor serves the next job normally.
    _, results, errors, done = _streamed(client, E2E)
    assert not errors and done["state"] == "done"
    assert [r["index"] for r in results] == [0, 1]


def test_other_jobs_cells_run_after_a_cell_fails(client):
    """A job submitted beside one whose cell fails still runs every
    cell: the failure cancels nothing outside its own job."""
    failing = CampaignSpec(
        benchmarks=("random:i6-o4-g40",),
        split_layers=(4, 6),
        key_bits=(64,),  # more key-gates than the core has nets
        scale=1.0,
        hd_patterns=256,
        max_candidates=60,
    )
    bad = client.submit(failing)
    good = client.submit(E2E)
    assert client.wait(bad["id"], timeout=120)["state"] == "failed"
    results, errors, done = _streamed_job(client, good["id"])
    assert not errors and done["state"] == "done"
    assert [r["index"] for r in results] == [0, 1]


def test_killed_worker_shows_as_one_restart(client, server):
    """SIGKILL an idle pool worker: /metrics counts one restart, and the
    next job runs on its replacement."""
    _streamed(client, E2E)  # both workers up
    before = client.metrics()["pool"]
    assert before["workers"] == 2
    os.kill(server.service.executor._procs[0].process.pid, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while client.metrics()["pool"]["restarts"] == before["restarts"]:
        assert time.monotonic() < deadline, "the death was never noticed"
        time.sleep(0.05)
    _, results, errors, done = _streamed(client, E2E)
    after = client.metrics()["pool"]
    assert not errors and done["state"] == "done"
    assert after == {
        "workers": 2,
        "restarts": before["restarts"] + 1,
        "queued": 0,
    }


def test_http_error_surfaces(client):
    with pytest.raises(ServiceError) as excinfo:
        client.job("j9999-nope")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client.submit({"kind": "nope", "spec": {}})
    assert excinfo.value.status == 400
    with pytest.raises(ServiceError) as excinfo:
        client._request("POST", "/healthz")
    assert excinfo.value.status == 405
    with pytest.raises(ServiceError) as excinfo:
        client._request("GET", "/nowhere")
    assert excinfo.value.status == 404


def test_negative_key_size_is_rejected_with_400(client):
    envelope = spec_payload(E2E)
    envelope["spec"]["key_bits"] = [-5]
    with pytest.raises(ServiceError) as excinfo:
        client.submit(envelope)
    assert excinfo.value.status == 400
    assert "key sizes" in str(excinfo.value)


def test_non_string_benchmark_is_rejected_with_400(client):
    envelope = spec_payload(E2E)
    envelope["spec"]["benchmarks"] = [5]
    with pytest.raises(ServiceError) as excinfo:
        client.submit(envelope)
    assert excinfo.value.status == 400
    assert "benchmarks" in str(excinfo.value)


def test_health_metrics_and_job_listing(client):
    health = client.health()
    assert health["status"] == "ok" and health["workers"] == 2
    metrics = client.metrics()
    assert metrics["jobs"]["submitted"] >= 1
    assert metrics["cells"]["completed"] >= 1
    assert metrics["cache"]["stages"]  # per-stage breakdown present
    listed = client.jobs()
    assert any(j["state"] == "done" for j in listed)


# ---------------------------------------------------------------------------
# Job timing and executor start method


def test_job_duration_survives_wall_clock_step(monkeypatch):
    """wall_seconds must come from monotonic pairs, not time.time().

    A backwards NTP step (or suspend/resume) between start and finish
    would make a wall-clock subtraction negative; the monotonic clock
    cannot step, so the reported duration stays sane.
    """
    import time as time_module

    job = _job()
    job.transition(JobState.RUNNING)
    # The wall clock jumps an hour into the past mid-job.
    real_time = time_module.time
    monkeypatch.setattr(
        "repro.service.jobs.time.time", lambda: real_time() - 3600.0
    )
    job.transition(JobState.DONE)
    summary = job.summary()
    assert summary["finished"] < summary["started"]  # display fields stepped
    assert summary["wall_seconds"] is not None
    assert 0.0 <= summary["wall_seconds"] < 60.0


def test_job_summary_without_start_has_no_duration():
    job = _job()
    assert job.summary()["wall_seconds"] is None
    job.transition(JobState.CANCELLED)
    assert job.summary()["wall_seconds"] is None


def test_campaign_executor_never_uses_fork():
    """The service pool lives in a threaded server: fork would snapshot
    lock/condition state mid-flight. The executor must pin a non-fork
    start method rather than inherit the platform default."""
    from repro.runner.engine import CampaignExecutor

    with CampaignExecutor(workers=1) as executor:
        method = executor._context.get_start_method()
    assert method in ("spawn", "forkserver")


# ---------------------------------------------------------------------------
# Malformed HTTP requests: answered with a 4xx or a closed connection


def _raw_exchange(server, request: bytes, timeout: float = 10.0) -> bytes:
    """Send *request* on a fresh connection; everything the server sent
    before closing it (``socket.timeout`` if it never closes)."""
    with socket.create_connection(server.service.address, timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _status(response: bytes) -> int:
    return int(response.split(b" ", 2)[1])


@pytest.fixture
def short_request_timeout(monkeypatch):
    """Stalled requests give up after half a second instead of 30."""
    monkeypatch.setattr(server_module, "_REQUEST_TIMEOUT", 0.5)


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_bad_content_length_is_400(server, length):
    request = f"POST /jobs HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
    response = _raw_exchange(server, request.encode())
    assert _status(response) == 400
    assert b"Content-Length" in response


def test_short_body_times_out_and_closes(server, short_request_timeout):
    request = b"POST /jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}"
    assert _raw_exchange(server, request, timeout=5.0) == b""


def test_jobs_path_without_id_is_404(server):
    response = _raw_exchange(server, b"GET /jobs/ HTTP/1.1\r\n\r\n")
    assert _status(response) == 404


def test_overlong_request_line_is_400(server):
    # just past the stream's 64 KiB line limit, so the server has read
    # every byte before it answers (no reset on close)
    request = b"GET /" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n"
    assert _status(_raw_exchange(server, request)) == 400


def _json_head(extra: bytes) -> bytes:
    return (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Connection: close\r\n" + extra + b"\r\n"
    )


def _chunks(body: bytes) -> list[bytes]:
    """The payloads of a chunked body, up to its closing chunk."""
    payloads = []
    while True:
        size, rest = body.split(b"\r\n", 1)
        if int(size, 16) == 0:
            assert rest == b"\r\n"
            return payloads
        payloads.append(rest[: int(size, 16)])
        assert rest[int(size, 16) : int(size, 16) + 2] == b"\r\n"
        body = rest[int(size, 16) + 2 :]


def test_health_and_stream_bytes_in_one_write_each(server, client, monkeypatch):
    # A /healthz answer is one write; a finished job's stream is the
    # head, then one write per record, the last carrying the closing
    # chunk too.  The bytes on the wire are the same as when the head,
    # body and closing chunk were written separately.
    writes = []
    write = asyncio.StreamWriter.write

    def recording(self, data):
        writes.append(bytes(data))
        return write(self, data)

    summary = client.submit(E2E)
    client.wait(summary["id"])
    monkeypatch.setattr(asyncio.StreamWriter, "write", recording)

    health = _raw_exchange(server, b"GET /healthz HTTP/1.1\r\n\r\n")
    body = (json.dumps(json.loads(health.split(b"\r\n\r\n", 1)[1])) + "\n").encode()
    assert health == _json_head(b"Content-Length: %d\r\n" % len(body)) + body
    assert writes == [health]

    writes.clear()
    request = f"GET /jobs/{summary['id']}/stream HTTP/1.1\r\n\r\n"
    stream = _raw_exchange(server, request.encode())
    head = _json_head(b"Transfer-Encoding: chunked\r\n")
    assert stream.startswith(head)
    lines = _chunks(stream[len(head) :])
    records = [json.loads(line) for line in lines]
    assert [r["event"] for r in records] == ["result", "result", "done"]
    chunks = [
        b"%x\r\n" % len(line) + line + b"\r\n"
        for line in ((json.dumps(r) + "\n").encode() for r in records)
    ]
    assert stream == head + b"".join(chunks) + b"0\r\n\r\n"
    assert writes == [head, *chunks[:-1], chunks[-1] + b"0\r\n\r\n"]


def _post_jobs(server, body: bytes) -> bytes:
    head = f"POST /jobs HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
    return _raw_exchange(server, head.encode() + body)


def test_deeply_nested_body_is_400_and_the_server_lives(server, client):
    # json.loads raises RecursionError (not a ValueError) on this body
    response = _post_jobs(server, b"[" * 200_000)
    assert _status(response) == 400
    assert b"nested too deeply" in response
    assert client.health()["status"] == "ok"


_JSON_LEAVES = st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=4)
_JSON_CONTAINERS = st.recursive(
    st.lists(_JSON_LEAVES, max_size=2),
    lambda inner: st.lists(inner | _JSON_LEAVES, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner | _JSON_LEAVES, max_size=3),
    max_leaves=12,
)


@st.composite
def nested_envelopes(draw) -> bytes:
    """A job envelope whose spec fields, spec, kind or whole body are
    replaced by (possibly very deeply) nested JSON."""
    envelope = spec_payload(E2E)
    spec = envelope["spec"]
    fields = draw(st.lists(st.sampled_from(sorted(spec)), max_size=3, unique=True))
    for name in fields:
        spec[name] = draw(_JSON_CONTAINERS)
    if not fields or draw(st.booleans()):
        envelope[draw(st.sampled_from(["kind", "spec"]))] = draw(_JSON_CONTAINERS)
    body = json.dumps(envelope)
    depth = draw(st.sampled_from([1, 64, 900, 3_000, 100_000]))
    opener, closer = draw(st.sampled_from([("[", "]"), ('{"k": ', "}")]))
    deep = opener * depth + "0" + closer * depth
    where = draw(st.sampled_from(["body", "field", "none"]))
    if where == "body":
        body = opener * depth + body + closer * depth
    elif where == "field":
        name = draw(st.sampled_from(sorted(spec)))
        body = json.dumps({**envelope, "spec": {**spec, name: "@@"}})
        body = body.replace('"@@"', deep)
    return body.encode()


@settings(max_examples=30, deadline=None)
@given(body=nested_envelopes())
def test_nested_envelopes_never_get_500_or_wedge_a_job(server, client, body):
    response = _post_jobs(server, body)
    status = _status(response)
    assert status != 500
    if status == 202:  # a spec that still validates: it must finish
        job = json.loads(response.split(b"\r\n\r\n", 1)[1])
        client.cancel(job["id"])
        assert client.wait(job["id"], timeout=120.0)["state"] in (
            "done",
            "failed",
            "cancelled",
        )
    else:
        assert 400 <= status < 500
    assert client.health()["status"] == "ok"


_TOKEN = st.text(
    st.characters(min_codepoint=0x21, max_codepoint=0xFF), min_size=1, max_size=12
)
_PATHS = st.builds(
    str.__add__,
    st.sampled_from(
        ["/", "/jobs", "/jobs/", "/jobs//", "/healthz", "/metrics",
         "/jobs/x/results", "/jobs/x/stream", "/jobs/x/cancel"]
    ),
    st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E), max_size=12),
)
_HEADER_VALUES = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0xFF), max_size=16
)
_HEADERS = st.lists(
    st.tuples(
        st.one_of(st.just("Content-Length"), _TOKEN.filter(lambda t: ":" not in t)),
        st.one_of(st.integers(-10, 1 << 23).map(str), _HEADER_VALUES),
    ),
    max_size=3,
)


@settings(max_examples=40, deadline=None)
@given(
    method=st.one_of(st.sampled_from(["GET", "POST", "PUT"]), _TOKEN),
    path=_PATHS,
    headers=_HEADERS,
)
def test_malformed_requests_never_get_500_or_hang(server, method, path, headers):
    lines = [f"{method} {path} HTTP/1.1"]
    lines += [f"{name}: {value}" for name, value in headers]
    request = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server_module, "_REQUEST_TIMEOUT", 0.5)
        response = _raw_exchange(server, request, timeout=10.0)
    # a declared body that never arrives closes without an answer
    assert response == b"" or _status(response) != 500


# ---------------------------------------------------------------------------
# Keep-alive: opt-in persistent connections

_KEEP_ALIVE = b"Connection: keep-alive\r\n"


def _read_response(stream) -> tuple[bytes, bytes]:
    """One response off an open connection: its head and its body (a
    chunked body still framed, through its closing chunk)."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        line = stream.readline()
        assert line, "connection closed mid-response"
        head += line
    length = re.search(rb"Content-Length: (\d+)", head)
    if length is not None:
        return head, stream.read(int(length[1]))
    body = b""
    while True:
        size = stream.readline()
        body += size + stream.read(int(size, 16) + 2)
        if int(size, 16) == 0:
            return head, body


def test_keep_alive_serves_two_requests_then_a_stream_on_one_socket(server):
    with socket.create_connection(server.service.address, timeout=60) as sock:
        stream = sock.makefile("rb")
        sock.sendall(b"GET /healthz HTTP/1.1\r\n" + _KEEP_ALIVE + b"\r\n")
        head, body = _read_response(stream)
        # the one-shot head, but for the Connection header
        assert head == _json_head(b"Content-Length: %d\r\n" % len(body)).replace(
            b"Connection: close", b"Connection: keep-alive"
        )
        assert json.loads(body)["status"] == "ok"

        envelope = json.dumps(spec_payload(E2E)).encode()
        sock.sendall(
            b"POST /jobs HTTP/1.1\r\n" + _KEEP_ALIVE
            + b"Content-Length: %d\r\n\r\n" % len(envelope) + envelope
        )
        head, body = _read_response(stream)
        assert _status(head) == 202 and _KEEP_ALIVE in head
        job = json.loads(body)

        sock.sendall(
            f"GET /jobs/{job['id']}/stream HTTP/1.1\r\n".encode()
            + _KEEP_ALIVE + b"\r\n"
        )
        head, body = _read_response(stream)
        assert head == _json_head(b"Transfer-Encoding: chunked\r\n").replace(
            b"Connection: close", b"Connection: keep-alive"
        )
        records = [json.loads(line) for line in _chunks(body)]
        assert [r["event"] for r in records] == ["result", "result", "done"]

        # a request that does not opt in gets the one-shot answer and
        # the connection closes after it
        sock.sendall(b"GET /jobs/%s HTTP/1.1\r\n\r\n" % job["id"].encode())
        rest = stream.read()
    body = rest.split(b"\r\n\r\n", 1)[1]
    assert rest == _json_head(b"Content-Length: %d\r\n" % len(body)) + body
    assert json.loads(body)["state"] == "done"


@pytest.mark.parametrize(
    "request_head",
    [
        b"GET /jobs/nope HTTP/1.1\r\n",
        b"POST /healthz HTTP/1.1\r\n",
        b"POST /jobs HTTP/1.1\r\nContent-Length: abc\r\n",
    ],
)
def test_error_answer_closes_a_kept_alive_connection(server, request_head):
    # _raw_exchange reads until the server closes (socket.timeout if it
    # never does); the answer is the one-shot answer, byte for byte
    kept = _raw_exchange(server, request_head + _KEEP_ALIVE + b"\r\n")
    assert 400 <= _status(kept) < 500
    assert kept == _raw_exchange(server, request_head + b"\r\n")


def test_idle_kept_alive_connection_closes_after_the_request_timeout(
    server, short_request_timeout
):
    with socket.create_connection(server.service.address, timeout=10) as sock:
        stream = sock.makefile("rb")
        sock.sendall(b"GET /healthz HTTP/1.1\r\n" + _KEEP_ALIVE + b"\r\n")
        head, _body = _read_response(stream)
        assert _KEEP_ALIVE in head
        idle_since = time.monotonic()
        assert stream.read() == b""
    assert 0.2 < time.monotonic() - idle_since < 5.0


def test_stop_closes_idle_kept_alive_connections_promptly():
    thread = ServiceThread(ServiceConfig(port=0, workers=1, use_cache=False)).start()
    client = ServiceClient(thread.url)
    try:
        assert client.health()["status"] == "ok"  # its connection stays open
        sock = socket.create_connection(thread.service.address, timeout=10)
        sock.sendall(b"GET /healthz HTTP/1.1\r\n" + _KEEP_ALIVE + b"\r\n")
        stream = sock.makefile("rb")
        _read_response(stream)
        start = time.monotonic()
    finally:
        thread.stop()
    assert time.monotonic() - start < 2.0
    assert not thread._thread.is_alive()
    assert stream.read() == b""  # the server closed the idle connection
    sock.close()
    client.close()


def test_threads_sharing_a_client_open_one_connection_each(server):
    observer = ServiceClient(server.url)
    observer.health()  # opens the observer's own connection
    before = observer.metrics()
    shared = ServiceClient(server.url)
    states, errors = [], []

    def lane() -> None:
        try:
            for _ in range(10):
                job = shared.submit(E2E)
                states.append(list(shared.stream(job["id"]))[-1]["job"]["state"])
        except Exception as exc:  # surfaced by the asserts below
            errors.append(exc)

    lanes = [threading.Thread(target=lane) for _ in range(2)]
    for thread in lanes:
        thread.start()
    for thread in lanes:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in lanes)
    after = observer.metrics()
    assert errors == [] and states == ["done"] * 20
    delta = {k: after["http"][k] - before["http"][k] for k in after["http"]}
    # 20 submissions and 20 streams on the lanes' two connections, plus
    # the observer's second /metrics on its own
    assert delta == {"connections": 2, "requests": 41}
    assert after["jobs"]["submitted"] - before["jobs"]["submitted"] == 20
    assert reuse_problem(before, after) is None


def test_stale_connection_is_retried_once_without_a_double_submit(
    server, monkeypatch
):
    observer = ServiceClient(server.url)
    before = observer.metrics()  # its idle wait keeps the 30 s deadline
    client = ServiceClient(server.url)
    monkeypatch.setattr(server_module, "_REQUEST_TIMEOUT", 0.5)
    client.health()  # the server gives this idle connection 0.5 s
    time.sleep(1.5)
    job = client.submit(E2E)  # the kept connection fails: one retry
    after = observer.metrics()
    assert after["jobs"]["submitted"] - before["jobs"]["submitted"] == 1
    delta = {k: after["http"][k] - before["http"][k] for k in after["http"]}
    # health, the retried submission and /metrics; the stale attempt
    # was never read
    assert delta == {"connections": 2, "requests": 3}
    assert client.wait(job["id"])["state"] == "done"


def test_verify_fails_when_the_client_reused_no_connection():
    def metrics(connections: int, requests: int) -> dict:
        return {"http": {"connections": connections, "requests": requests}}

    assert reuse_problem(metrics(1, 1), metrics(1, 4)) is None
    assert reuse_problem(metrics(1, 1), metrics(3, 4)) is None
    assert "reused none" in reuse_problem(metrics(1, 1), metrics(4, 4))


# ---------------------------------------------------------------------------
# The verify layer's /metrics check


def _metrics(misses: int, **stages: dict) -> dict:
    return {"cache": {"hits": 0, "misses": misses, "stages": stages}}


def test_verify_fails_when_the_attack_stage_has_no_counters():
    before = _metrics(0)
    moved_elsewhere = _metrics(2, lock={"hits": 0, "misses": 2})
    for expect_cached in (False, True):
        assert "moved no 'attack'" in cache_problem(
            before, moved_elsewhere, expect_cached
        )
    idle = _metrics(0, attack={"hits": 0, "misses": 0})
    assert "moved no" in cache_problem(idle, idle, expect_cached=False)


def test_verify_checks_cold_and_cached_passes_on_the_attack_stage():
    before = _metrics(0)
    cold = _metrics(3, attack={"hits": 0, "misses": 1})
    assert cache_problem(before, cold, expect_cached=False) is None
    assert "cache-served" in cache_problem(before, cold, expect_cached=True)
    rerun = _metrics(3, attack={"hits": 1, "misses": 1})
    assert cache_problem(cold, rerun, expect_cached=True) is None
