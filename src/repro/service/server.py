"""Stdlib-only threaded HTTP server over the planning service.

Every endpoint speaks the versioned JSON payloads of
:mod:`repro.service.protocol` — the wire layer adds routing and status codes,
nothing else.  Routes (all under ``/v1``):

=====================================  ========================================
``POST /v1/jobs``                      submit (``submit_request`` body) → 202
                                       ``job_status``
``GET  /v1/jobs/<ticket>``             poll → ``job_status`` (with the
                                       embedded ``optimization_result`` once
                                       finished)
``GET  /v1/jobs/<ticket>/stream``      newline-delimited JSON: one
                                       ``frontier_update`` per line as the
                                       scheduler produces them, then one final
                                       ``job_status`` line
``POST /v1/jobs/<ticket>/steer``       remote steering (``steer_request``
                                       body: ``change_bounds`` / ``select``)
``POST /v1/jobs/<ticket>/cancel``      cancel
``GET  /v1/stats``                     ``service_stats`` gauges
``GET  /metrics``                      Prometheus text exposition (v0.0.4) of
                                       the service's metrics registry; behind
                                       a worker pool, shard families carry a
                                       ``shard`` label
``GET  /v1/planners``                  planner names → summaries
                                       (:data:`~repro.api.planners.PLANNERS`)
``GET  /v1/healthz``                   liveness (``service_health``): 200 when
                                       every worker is alive, 503 with the
                                       same payload when any shard is dead
=====================================  ========================================

Error mapping: schema violations and bad requests → 400, unknown tickets and
routes → 404, a full backlog → 503 (backpressure), failed jobs report their
error inside the 200 ``job_status``.  The stream endpoint is close-delimited
(HTTP/1.0 semantics): clients read lines until EOF.

The server is agnostic to the service behind it: the in-process
:class:`PlanningService` and the multi-process
:class:`~repro.service.shard.WorkerPoolService` expose the same verb surface.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.api.planners import PLANNERS
from repro.api.schema import SchemaError
from repro.service.protocol import parse_submit
from repro.service.jobs import UnknownTicketError
from repro.service.scheduler import AdmissionError
from repro.service.service import PlanningService

#: Route prefix; bump alongside the payload schema version on breaking change.
API_PREFIX = "/v1"


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to the server's :class:`PlanningService`."""

    server_version = "repro-planning-service/1"
    #: Quiet by default; the CLI flips this on with ``serve --verbose``.
    verbose = False

    # ------------------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.verbose:
            super().log_message(format, *args)

    @property
    def service(self) -> PlanningService:
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._response_started = False
        try:
            self._route_get()
        except UnknownTicketError as exc:
            self._send_error(404, str(exc.args[0]))
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream
        except Exception as exc:  # noqa: BLE001 - wire boundary
            self._send_error(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        try:
            self._route_post()
        except UnknownTicketError as exc:
            self._send_error(404, str(exc.args[0]))
        except AdmissionError as exc:
            self._send_error(503, str(exc))
        except (SchemaError, ValueError, KeyError) as exc:
            self._send_error(400, str(exc.args[0] if exc.args else exc))
        except RuntimeError as exc:
            # e.g. steering a job that already reached a terminal state.
            self._send_error(409, str(exc))
        except Exception as exc:  # noqa: BLE001 - wire boundary
            self._send_error(500, f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    def _route_get(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == f"{API_PREFIX}/healthz":
            health = self.service.health()
            code = 200 if health.get("status") == "ok" else 503
            self._send_json(code, health)
            return
        if path == f"{API_PREFIX}/stats":
            self._send_json(200, self.service.stats())
            return
        if path == "/metrics":
            # The conventional scrape path lives outside the /v1 prefix —
            # Prometheus defaults to it and the exposition format carries
            # its own versioning.
            self._send_text(200, self.service.render_metrics())
            return
        if path == f"{API_PREFIX}/planners":
            self._send_json(
                200, {name: driver.summary for name, driver in PLANNERS.items()}
            )
            return
        ticket, verb = self._job_route(path)
        if ticket is not None and verb is None:
            self._send_json(200, self.service.poll(ticket))
            return
        if ticket is not None and verb == "stream":
            self._stream(ticket)
            return
        self._send_error(404, f"unknown route {path!r}")

    def _route_post(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == f"{API_PREFIX}/jobs":
            ticket = self.service.submit(parse_submit(self._read_json()))
            self._send_json(202, self.service.poll(ticket, include_result=False))
            return
        ticket, verb = self._job_route(path)
        if ticket is not None and verb == "steer":
            self._send_json(200, self.service.steer(ticket, self._read_json()))
            return
        if ticket is not None and verb == "cancel":
            self._send_json(200, self.service.cancel(ticket))
            return
        self._send_error(404, f"unknown route {path!r}")

    @staticmethod
    def _job_route(path: str) -> Tuple[Optional[str], Optional[str]]:
        prefix = f"{API_PREFIX}/jobs/"
        if not path.startswith(prefix):
            return None, None
        rest = path[len(prefix):]
        if not rest:
            return None, None
        if "/" not in rest:
            return rest, None
        ticket, verb = rest.split("/", 1)
        return (ticket, verb) if ticket else (None, None)

    # ------------------------------------------------------------------
    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        if not body:
            raise SchemaError("request body must be a JSON payload")
        try:
            payload = json.loads(body)
        except ValueError:
            raise SchemaError("request body is not valid JSON") from None
        if not isinstance(payload, dict):
            raise SchemaError("request body must be a JSON object")
        return payload

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, message: str) -> None:
        # Once a streamed response has started, a second status line would
        # land inside the NDJSON body and corrupt it for the client — just
        # drop the connection instead (close-delimited framing).
        if getattr(self, "_response_started", False):
            return
        self._send_json(status, {"error": message, "status": status})

    def _stream(self, ticket: str) -> None:
        service = self.service
        service.job(ticket)  # 404 before headers go out
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        # Close-delimited: no Content-Length; the client reads until EOF.
        self.end_headers()
        self._response_started = True
        for payload in service.stream(ticket):
            self.wfile.write(json.dumps(payload).encode("utf-8") + b"\n")
            self.wfile.flush()
        status = service.poll(ticket)
        self.wfile.write(json.dumps(status).encode("utf-8") + b"\n")
        self.wfile.flush()


class PlanningServer:
    """The threaded HTTP server wrapping one :class:`PlanningService`.

    ``port=0`` binds an ephemeral port (tests); :attr:`address` reports the
    bound ``(host, port)``.  ``start()`` serves on a daemon thread,
    ``serve_forever()`` serves on the calling thread (the CLI ``serve``
    command), and ``close()`` stops the HTTP loop and shuts the service down.
    """

    def __init__(
        self,
        service,  # PlanningService or WorkerPoolService (same verb surface)
        host: str = "127.0.0.1",
        port: int = 8723,
        verbose: bool = False,
    ):
        self.service = service
        handler = type("BoundHandler", (_Handler,), {"verbose": verbose})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._httpd.service = service  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._serving = False

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "PlanningServer":
        self._serving = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-planning-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._serving = True
        self._httpd.serve_forever()

    def close(self, drain_seconds: Optional[float] = None) -> None:
        """Stop the HTTP loop, then close the service.

        ``drain_seconds`` bounds a graceful drain: the service stops
        admitting, in-flight jobs get up to that long to finish, and the
        persistent cache tier is flushed — the SIGTERM/SIGINT path of
        ``repro-moqo serve``.
        """
        # BaseServer.shutdown() blocks until serve_forever() acknowledges it,
        # which deadlocks if the serve loop never ran (e.g. a server built
        # for inspection only) — skip it in that case.
        if self._serving:
            self._httpd.shutdown()
            self._serving = False
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.service.close(drain_seconds=drain_seconds)

    def __enter__(self) -> "PlanningServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
