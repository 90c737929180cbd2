"""Stdlib HTTP client for the planning service wire protocol.

:class:`ServiceClient` is the programmatic counterpart of ``repro-moqo
submit``: it round-trips the versioned JSON payloads
(:class:`~repro.api.request.OptimizeRequest` in,
:class:`~repro.api.schema.OptimizationResult` out) against a running
:class:`~repro.service.server.PlanningServer` using nothing but
``http.client``.  The CI service-smoke job and the server tests drive the
protocol exclusively through this class.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, Iterator, Optional, Sequence

from repro.api.request import OptimizeRequest
from repro.api.schema import OptimizationResult
from repro.service.protocol import (
    TERMINAL_STATES,
    check_job_status,
    steer_bounds_payload,
    steer_select_payload,
    submit_payload,
)


class ServiceClientError(RuntimeError):
    """A non-2xx response from the planning service."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceClient:
    """Talk to one planning server over the JSON wire protocol."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8723, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Raw HTTP
    # ------------------------------------------------------------------
    @staticmethod
    def _error_from(status: int, text: str) -> ServiceClientError:
        """Decode an error body ({"error": ...} or plain text) into the exception."""
        message = text
        try:
            message = json.loads(text).get("error", text)
        except ValueError:
            pass
        return ServiceClientError(status, message)

    def _request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> dict:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = json.dumps(payload).encode("utf-8") if payload is not None else None
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            text = response.read().decode("utf-8")
            if response.status >= 400:
                raise self._error_from(response.status, text)
            return json.loads(text)
        finally:
            connection.close()

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """The ``service_health`` payload.

        A degraded service answers 503 *with* the health body (per-worker
        liveness) — that body is returned, not raised, so probes can report
        which shard died.
        """
        try:
            return self._request("GET", "/v1/healthz")
        except ServiceClientError as exc:
            if exc.status == 503:
                try:
                    payload = json.loads(exc.message)
                except ValueError:
                    payload = None
                if isinstance(payload, dict) and "status" in payload:
                    return payload
            raise

    def planners(self) -> Dict[str, str]:
        return self._request("GET", "/v1/planners")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def submit(self, request: OptimizeRequest) -> dict:
        """Submit a request; returns the initial ``job_status`` payload."""
        status = self._request("POST", "/v1/jobs", submit_payload(request))
        return check_job_status(status)

    def poll(self, ticket: str) -> dict:
        return check_job_status(self._request("GET", f"/v1/jobs/{ticket}"))

    def steer_bounds(self, ticket: str, bounds: Sequence[object]) -> dict:
        return self._request(
            "POST", f"/v1/jobs/{ticket}/steer", steer_bounds_payload(bounds)
        )

    def select(self, ticket: str, index: int) -> dict:
        return self._request(
            "POST", f"/v1/jobs/{ticket}/steer", steer_select_payload(index)
        )

    def cancel(self, ticket: str) -> dict:
        return self._request("POST", f"/v1/jobs/{ticket}/cancel", {})

    # ------------------------------------------------------------------
    def stream(self, ticket: str) -> Iterator[dict]:
        """Yield the job's NDJSON stream: frontier updates, then the status.

        The final line is the terminal ``job_status`` payload (``kind`` tells
        the two apart).
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request("GET", f"/v1/jobs/{ticket}/stream")
            response = connection.getresponse()
            if response.status >= 400:
                raise self._error_from(
                    response.status, response.read().decode("utf-8")
                )
            for raw in response:
                line = raw.strip()
                if line:
                    yield json.loads(line)
        finally:
            connection.close()

    def result(
        self,
        ticket: str,
        timeout: Optional[float] = None,
        poll_interval: float = 0.05,
    ) -> OptimizationResult:
        """Poll until terminal and decode the typed result payload."""
        deadline = time.monotonic() + timeout if timeout is not None else None
        while True:
            status = self.poll(ticket)
            if status["state"] in TERMINAL_STATES:
                if status["state"] != "finished":
                    raise ServiceClientError(
                        500,
                        f"job {ticket} ended {status['state']}: "
                        f"{status.get('error') or 'no result'}",
                    )
                return OptimizationResult.from_dict(status["result"])
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"{ticket} not finished within {timeout} s")
            time.sleep(poll_interval)
