"""Thin stdlib HTTP client for the campaign service.

Used by the tests, the CI verification layer and the ``python -m
repro.service`` CLI; anything that can POST JSON works just as well
(the README shows the same calls as ``curl`` lines).  Every request
asks for ``Connection: keep-alive``, and each thread keeps the
connection for its next request once a response was read to its end,
so one client shared by several threads holds one connection per
thread.  A kept connection the server has since closed (idle timeout,
shutdown) fails before any status line arrives — the server never read
the request — and the request is sent once more on a fresh connection.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Iterator
from urllib.parse import urlsplit

from repro.runner.spec import (
    AttackCampaignSpec,
    CampaignSpec,
    spec_payload,
)


class ServiceError(RuntimeError):
    """Non-2xx response (or unreachable server after retries)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class _Kept(list):
    """Idle kept-alive connections; dropping the list closes them."""

    def close(self) -> None:
        while self:
            self.pop().close()

    __del__ = close


class ServiceClient:
    """Synchronous client bound to one service base URL.

    Threads may share one client: each keeps its own connection.
    """

    def __init__(self, url: str, timeout: float = 300.0) -> None:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("", "http"):
            raise ValueError(f"only http:// urls supported, got {url!r}")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 80
        self.timeout = timeout
        self._local = threading.local()

    def _idle(self) -> "_Kept":
        """This thread's kept connections (one, unless streams nest)."""
        idle = getattr(self._local, "idle", None)
        if idle is None:
            idle = self._local.idle = _Kept()
        return idle

    def _open(
        self, method: str, path: str, body: Any = None
    ) -> tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
        """Send one request; its connection and response (head read)."""
        payload = None if body is None else json.dumps(body)
        headers = {"Connection": "keep-alive"}
        if payload:
            headers["Content-Type"] = "application/json"
        request = (method, path, payload, headers)
        idle = self._idle()
        if idle:
            connection = idle.pop()
            try:
                return connection, _exchange(connection, *request)
            except ConnectionError:
                # The server closes a kept connection only while it
                # waits for a request (idle timeout, shutdown), so it
                # never read this one: sending it again cannot submit
                # twice.
                pass
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        return connection, _exchange(connection, *request)

    def _release(
        self,
        connection: http.client.HTTPConnection,
        response: http.client.HTTPResponse,
    ) -> None:
        """Keep *connection* for this thread's next request if
        *response* was read to its end and did not ask to close."""
        if response.isclosed() and not response.will_close:
            self._idle().append(connection)
        else:
            connection.close()

    def close(self) -> None:
        """Close the calling thread's kept connections (another thread's
        close when that thread ends or the client is dropped)."""
        self._idle().close()

    def _request(
        self, method: str, path: str, body: Any = None
    ) -> dict[str, Any]:
        connection, response = self._open(method, path, body)
        try:
            data = response.read()
        finally:
            self._release(connection, response)
        parsed = json.loads(data.decode() or "null")
        if response.status >= 400:
            message = parsed.get("error", "") if isinstance(parsed, dict) else ""
            raise ServiceError(response.status, message or data.decode())
        return parsed

    # -- endpoints --------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict[str, Any]:
        return self._request("GET", "/metrics")

    def submit(
        self, spec: CampaignSpec | AttackCampaignSpec | dict[str, Any]
    ) -> dict[str, Any]:
        """Submit a spec (or a prebuilt envelope); returns the summary."""
        envelope = spec if isinstance(spec, dict) else spec_payload(spec)
        return self._request("POST", "/jobs", envelope)

    def jobs(self) -> list[dict[str, Any]]:
        return self._request("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def results(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}/results")

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def stream(self, job_id: str) -> Iterator[dict[str, Any]]:
        """Yield NDJSON records as the job's cells complete.

        Ends after the final ``done`` event (which is yielded too, so
        callers see the closing job summary).
        """
        connection, response = self._open("GET", f"/jobs/{job_id}/stream")
        done = None
        try:
            if response.status >= 400:
                data = response.read().decode()
                try:
                    message = json.loads(data).get("error", data)
                except ValueError:
                    message = data
                raise ServiceError(response.status, message)
            for line in response:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line.decode())
                if record.get("event") == "done":
                    response.read()  # the closing chunk: frees the connection
                    done = record
                    break
                yield record
        finally:
            self._release(connection, response)
        if done is not None:
            yield done

    # -- conveniences -----------------------------------------------------

    def wait(
        self, job_id: str, timeout: float = 600.0, poll: float = 0.2
    ) -> dict[str, Any]:
        """Poll until the job reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            summary = self.job(job_id)
            if summary["state"] in ("done", "failed", "cancelled"):
                return summary
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {summary['state']} after {timeout}s"
                )
            time.sleep(poll)

    def wait_healthy(self, timeout: float = 60.0, poll: float = 0.3) -> dict:
        """Retry ``/healthz`` until the server answers (CI boot gate)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except (OSError, ServiceError) as exc:
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"service at {self.host}:{self.port} not healthy "
                        f"after {timeout}s: {exc}"
                    ) from exc
                time.sleep(poll)


def _exchange(
    connection: http.client.HTTPConnection,
    method: str,
    path: str,
    payload: str | None,
    headers: dict[str, str],
) -> http.client.HTTPResponse:
    """Send one request on *connection*; its response, head read.  Any
    failure closes the connection."""
    try:
        connection.request(method, path, body=payload, headers=headers)
        return connection.getresponse()
    except BaseException:
        connection.close()
        raise
