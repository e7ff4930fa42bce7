"""Campaign service: job state machine, spec envelopes, HTTP end to end.

The load-bearing guarantees under test:

* the job state machine only walks its allowed edges
  (``queued → running → done | failed | cancelled``);
* spec envelopes survive a JSON round trip for both campaign kinds;
* results streamed over real HTTP are **bit-identical** to the same
  spec executed in process (the CLI path), modulo wall-clock keys;
* identical cells submitted by concurrent jobs are computed exactly
  once (the in-flight dedupe table) yet delivered to every submitter.

The end-to-end tests talk real HTTP to a :class:`ServiceThread` on an
ephemeral localhost port — the same harness CI's service jobs use.
"""

from __future__ import annotations

import asyncio
import json
import socket

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
from repro.service.jobs import CELL_PENDING, cell_key
from repro.service.verify import cache_problem

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
    results, errors, done = [], [], None
    for record in client.stream(summary["id"]):
        if record["event"] == "result":
            results.append(record)
        elif record["event"] == "error":
            errors.append(record)
        else:
            done = record["job"]
    results.sort(key=lambda r: r["index"])
    return summary, results, errors, done


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
        method = executor._pool._mp_context.get_start_method()
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
