"""Thin blocking client for the ``repro serve`` daemon.

Stdlib-only (urllib): submit jobs, poll status, iterate the JSONL event
stream, and wait for results.  Protocol errors surface as
:class:`ServiceError` carrying the daemon's one-line JSON error, so CLI
callers can keep the repository's one-line error contract.
"""

from __future__ import annotations

import json
import pathlib
import time
import urllib.error
import urllib.request
from typing import Any, Iterator

from repro.service import protocol
from repro.service.daemon import ENDPOINT_FILE, TERMINAL


class ServiceError(RuntimeError):
    """A daemon-side error (HTTP status + its one-line message)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


def read_endpoint(state_dir: str) -> str:
    """The daemon URL recorded in ``state_dir`` by a running ``repro serve``."""
    path = pathlib.Path(state_dir) / ENDPOINT_FILE
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(
            f"no service endpoint under {state_dir} "
            f"(is `repro serve --state-dir {state_dir}` running?): {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"endpoint file {path} is corrupt: {exc}") from exc
    url = payload.get("url")
    if not isinstance(url, str) or not url.startswith("http"):
        raise ValueError(f"endpoint file {path} carries no url")
    return url


class ServiceClient:
    """Blocking HTTP client over one daemon endpoint."""

    def __init__(
        self,
        base_url: str | None = None,
        *,
        state_dir: str | None = None,
        timeout_s: float = 30.0,
    ) -> None:
        if base_url is None:
            if state_dir is None:
                raise ValueError("need base_url or state_dir")
            base_url = read_endpoint(state_dir)
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    # ------------------------------------------------------------ plumbing

    def _open(
        self, method: str, path: str, body: dict[str, Any] | None = None,
        *, accept: str = "application/json",
    ):
        """The daemon's response to one request; an error it answers, or
        failing to reach it, is a :class:`ServiceError`."""
        headers = {"Accept": accept}
        data = None
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            return urllib.request.urlopen(req, timeout=self.timeout_s)
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read().decode()).get("error", "")
            except (json.JSONDecodeError, OSError):
                message = exc.reason
            raise ServiceError(exc.code, str(message)) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(0, f"cannot reach {self.base_url}: "
                                  f"{exc.reason}") from exc

    def _request(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        with self._open(method, path, body) as resp:
            return json.loads(resp.read().decode())

    # ------------------------------------------------------------- surface

    def health(self) -> dict[str, Any]:
        return self._request("GET", "/v1/healthz")

    def scenarios(self) -> list[dict[str, Any]]:
        return self._request("GET", "/v1/scenarios")["scenarios"]

    def queue(self) -> dict[str, Any]:
        return self._request("GET", "/v1/queue")

    def report(self) -> dict[str, Any]:
        return self._request("GET", "/v1/report")

    def jobs(self) -> list[dict[str, Any]]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def submit(
        self, kind: str, spec: dict[str, Any], *, tenant: str = "default"
    ) -> dict[str, Any]:
        return self._request("POST", "/v1/jobs", {
            "schema": protocol.SCHEMA, "tenant": tenant,
            "kind": kind, "spec": spec,
        })

    def status(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    def shutdown(self) -> dict[str, Any]:
        return self._request("POST", "/v1/shutdown")

    def _lines(self, job_id: str) -> Iterator[dict[str, Any] | None]:
        """Each line of the job's event stream until it is terminal: an
        event, or None for a heartbeat (sent at least every 0.5 s)."""
        with self._open("GET", f"/v1/jobs/{job_id}/stream",
                        accept="application/x-ndjson") as resp:
            for line in resp:
                line = line.strip()
                yield json.loads(line.decode()) if line else None

    def stream(self, job_id: str) -> Iterator[dict[str, Any]]:
        """Yield the job's JSONL events until it reaches a terminal state."""
        return (event for event in self._lines(job_id) if event is not None)

    def wait(
        self, job_id: str, *, timeout_s: float | None = None
    ) -> dict[str, Any]:
        """Block until the job is terminal; returns its final status dict."""
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )

        def check_deadline() -> None:
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} not terminal after {timeout_s}s"
                )

        for _ in self._lines(job_id):  # heartbeats too: a quiet job times out
            check_deadline()
        status = self.status(job_id)
        while status["status"] not in TERMINAL:  # stream cut early: poll
            check_deadline()
            time.sleep(0.1)
            status = self.status(job_id)
        return status
