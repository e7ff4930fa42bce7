"""The asyncio HTTP front end of the campaign service.

Pure stdlib (``asyncio.start_server`` plus a minimal HTTP/1.1 layer) so
the service runs anywhere the reproduction does — no web framework to
install.  Endpoints:

* ``GET  /healthz``          — liveness + config echo;
* ``GET  /metrics``          — the per-stage counters
  (:class:`~repro.service.metrics.ServiceMetrics`);
* ``POST /jobs``             — submit a spec envelope
  (``{"kind": "campaign"|"attacks", "spec": {...}}``), returns the job
  summary with its id;
* ``GET  /jobs``             — job summaries;
* ``GET  /jobs/{id}``        — one summary;
* ``GET  /jobs/{id}/results``— buffered results (``partial`` until
  terminal);
* ``GET  /jobs/{id}/stream`` — chunked NDJSON: every per-cell record as
  it completes, then a final ``done`` event;
* ``POST /jobs/{id}/cancel`` — cancel pending cells.

A connection serves one request and closes (``Connection: close``)
unless the request opts in with ``Connection: keep-alive``: then the
answer says so and the connection waits for the next request, for as
long as each request opts in.  Error answers (4xx/5xx) always close.
Every request — the wait for its first byte, its headers and its body —
is read under one ``_REQUEST_TIMEOUT`` deadline, so an idle kept-alive
connection closes after that long.  :class:`CampaignService.stop`
closes connections that are waiting for a request.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
from collections.abc import AsyncIterator
from typing import Any

from repro.runner.engine import CampaignExecutor
from repro.service.config import ServiceConfig
from repro.service.jobs import JobManager
from repro.service.metrics import ServiceMetrics
from repro.utils.artifact_cache import ArtifactCache

#: Largest accepted request body (a spec envelope is a few KiB).
MAX_BODY_BYTES = 4 << 20
_REQUEST_TIMEOUT = 30.0


class HttpError(Exception):
    """Maps straight to a JSON error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


def _head(status: int, extra: str = "", keep_alive: bool = False) -> bytes:
    text = _STATUS_TEXT.get(status, "Error")
    return (
        f"HTTP/1.1 {status} {text}\r\n"
        "Content-Type: application/json\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"{extra}\r\n"
    ).encode()


async def _send_json(
    writer: asyncio.StreamWriter, status: int, body: Any, keep_alive: bool = False
) -> None:
    payload = (json.dumps(body) + "\n").encode()
    head = _head(status, f"Content-Length: {len(payload)}\r\n", keep_alive)
    writer.write(head + payload)
    await writer.drain()


async def _send_stream(
    writer: asyncio.StreamWriter,
    records: AsyncIterator[dict[str, Any]],
    keep_alive: bool,
) -> None:
    """NDJSON records as HTTP/1.1 chunks, one chunk per record; the
    ``done`` record's chunk carries the closing chunk too."""
    writer.write(_head(200, "Transfer-Encoding: chunked\r\n", keep_alive))
    await writer.drain()
    async for record in records:
        line = (json.dumps(record) + "\n").encode()
        chunk = f"{len(line):x}\r\n".encode() + line + b"\r\n"
        last = record.get("event") == "done"
        writer.write(chunk + b"0\r\n\r\n" if last else chunk)
        await writer.drain()


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError as exc:  # the line overran the stream's buffer limit
        raise HttpError(400, "request line or header too long") from exc


async def _parse_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, bytes, bool]:
    line = await _read_line(reader)
    if not line:
        raise ConnectionResetError("empty request")
    try:
        method, target, _version = line.decode("latin-1").split()
    except ValueError as exc:
        raise HttpError(400, "malformed request line") from exc
    headers: dict[str, str] = {}
    while True:
        header = await _read_line(reader)
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise HttpError(400, f"bad Content-Length {raw_length!r}")
    length = int(raw_length)
    if length > MAX_BODY_BYTES:
        raise HttpError(413, f"body larger than {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length)
    tokens = {t.strip() for t in headers.get("connection", "").lower().split(",")}
    keep_alive = "keep-alive" in tokens and "close" not in tokens
    return method, target.split("?", 1)[0], body, keep_alive


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, bytes, bool]:
    """Parse one request; returns (method, path, body, keep_alive).

    One deadline covers the whole request, from the wait for its first
    byte to the end of its body: a client that stalls anywhere in it,
    or a kept-alive connection left idle, times out and is closed.
    """
    return await asyncio.wait_for(_parse_request(reader), _REQUEST_TIMEOUT)


class CampaignService:
    """One service instance: executor + job manager + HTTP server."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig.from_env()
        self.metrics = ServiceMetrics()
        self.executor: CampaignExecutor | None = None
        self.manager: JobManager | None = None
        self._server: asyncio.Server | None = None
        #: Handlers waiting for a request, by connection; :meth:`stop`
        #: closes those connections and awaits the handlers.
        self._waiting: dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._stopping = False

    async def start(self) -> None:
        """Sweep cache orphans, spin the pool up, bind the socket."""
        if self.config.use_cache:
            cache = ArtifactCache(self.config.resolved_cache_dir())
            self.metrics.orphans_swept = cache.cleanup_orphans()
        self.executor = CampaignExecutor(
            workers=self.config.workers,
            cache_dir=self.config.cache_dir,
            use_cache=self.config.use_cache,
        )
        self.manager = JobManager(
            self.executor, self.metrics, max_jobs=self.config.max_jobs
        )
        self._server = await asyncio.start_server(
            self._handle, host=self.config.host, port=self.config.port
        )

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolves port 0 to the real one."""
        assert self._server is not None, "service not started"
        return self._server.sockets[0].getsockname()[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    async def stop(self) -> None:
        self._stopping = True
        if self._server is not None:
            self._server.close()
            waiting = list(self._waiting.items())
            for writer, _handler in waiting:
                writer.close()  # the handler reads EOF and ends
            await asyncio.gather(
                *(handler for _writer, handler in waiting), return_exceptions=True
            )
            await self._server.wait_closed()
        if self.manager is not None:
            for job in self.manager.jobs.values():
                if not job.is_terminal:
                    await self.manager.cancel(job)
            await self.manager.drain()
        if self.executor is not None:
            self.executor.shutdown()

    # -- request handling -------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.http_connections += 1
        try:
            try:
                while await self._answer(reader, writer) and not self._stopping:
                    pass
            except HttpError as exc:
                await _send_json(
                    writer, exc.status, {"error": str(exc)}
                )
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.IncompleteReadError,
                asyncio.TimeoutError,
            ):
                pass  # client went away or idled out; nothing to answer
            except Exception as exc:  # defensive: never kill the server
                try:
                    await _send_json(
                        writer,
                        500,
                        {"error": f"{type(exc).__name__}: {exc}"},
                    )
                except (ConnectionResetError, BrokenPipeError):
                    pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _answer(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Read and answer one request; whether the connection stays
        open for the next one (the request asked for keep-alive)."""
        self._waiting[writer] = asyncio.current_task()
        try:
            method, path, body, keep_alive = await _read_request(reader)
        finally:
            del self._waiting[writer]
        self.metrics.http_requests += 1
        status, payload = await self._route(method, path, body)
        if isinstance(payload, AsyncIterator):
            await _send_stream(writer, payload, keep_alive)
        else:
            await _send_json(writer, status, payload, keep_alive)
        return keep_alive

    async def _route(self, method: str, path: str, body: bytes) -> tuple[int, Any]:
        """The (status, JSON body) answer to one request; a stream's
        body is its async iterator of records."""
        manager = self.manager
        assert manager is not None
        if path == "/healthz":
            self._require(method, "GET")
            return 200, {
                "status": "ok",
                "workers": self.executor.workers,
                "cache_dir": (
                    str(self.config.resolved_cache_dir())
                    if self.config.use_cache
                    else None
                ),
                "jobs": len(manager.jobs),
            }
        if path == "/metrics":
            self._require(method, "GET")
            return 200, self.metrics.snapshot(
                manager.cells_in_flight(),
                manager.jobs_by_state(),
                self.executor.stats(),
            )
        if path == "/jobs":
            if method == "POST":
                envelope = self._parse_body(body)
                try:
                    job = manager.submit_payload(envelope)
                except RecursionError as exc:
                    raise HttpError(400, "spec nested too deeply") from exc
                except (ValueError, KeyError) as exc:
                    message = exc.args[0] if exc.args else str(exc)
                    raise HttpError(400, str(message)) from exc
                return 202, job.summary()
            self._require(method, "GET")
            return 200, {"jobs": [j.summary() for j in manager.jobs.values()]}
        if path.startswith("/jobs/"):
            parts = path.strip("/").split("/")
            job_id = parts[1] if len(parts) > 1 else ""
            job = manager.jobs.get(job_id)
            if job is None:
                raise HttpError(404, f"unknown job {job_id!r}")
            action = parts[2] if len(parts) > 2 else None
            if action is None:
                self._require(method, "GET")
                return 200, job.summary()
            if action == "results":
                self._require(method, "GET")
                return 200, manager.results_payload(job)
            if action == "cancel":
                self._require(method, "POST")
                changed = await manager.cancel(job)
                return 200, {"cancelled": changed, **job.summary()}
            if action == "stream":
                self._require(method, "GET")
                return 200, manager.stream(job)  # ends with "done"
        raise HttpError(404, f"no route for {path}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise HttpError(405, f"use {expected}")

    @staticmethod
    def _parse_body(body: bytes) -> Any:
        try:
            return json.loads(body.decode() or "null")
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"bad JSON body: {exc}") from exc
        except RecursionError as exc:  # not a ValueError
            raise HttpError(400, "bad JSON body: nested too deeply") from exc


async def _serve(config: ServiceConfig, ready=None) -> None:
    service = CampaignService(config)
    await service.start()
    host, port = service.address
    print(
        f"[service] listening on http://{host}:{port} "
        f"(workers={service.executor.workers}, cache="
        f"{service.config.resolved_cache_dir() if config.use_cache else 'off'}, "
        f"orphans swept={service.metrics.orphans_swept})",
        file=sys.stderr,
        flush=True,
    )
    if ready is not None:
        ready(service)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    try:
        import signal

        loop.add_signal_handler(signal.SIGTERM, stop.set)
        loop.add_signal_handler(signal.SIGINT, stop.set)
    except (NotImplementedError, RuntimeError):  # pragma: no cover
        pass  # non-main thread or platform without signal support
    try:
        await stop.wait()
    except asyncio.CancelledError:
        pass
    finally:
        print("[service] shutting down", file=sys.stderr, flush=True)
        await service.stop()


def serve_forever(config: ServiceConfig | None = None) -> int:
    """Blocking entry point of ``python -m repro.runner serve``."""
    try:
        asyncio.run(_serve(config if config is not None else ServiceConfig.from_env()))
    except KeyboardInterrupt:  # pragma: no cover
        pass
    return 0


class ServiceThread:
    """A real service on an ephemeral port, hosted in a daemon thread.

    The self-hosted harness used by the tests and by ``python -m
    repro.service verify/stress``: clients talk real HTTP over
    localhost while the hosting process controls the lifecycle.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.service: CampaignService | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def body() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self.service = CampaignService(self.config)
            await self.service.start()
            self._ready.set()
            await self._stop.wait()
            await self.service.stop()

        asyncio.run(body())

    def start(self) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise RuntimeError("service thread failed to start")
        return self

    @property
    def url(self) -> str:
        assert self.service is not None
        return self.service.url

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
