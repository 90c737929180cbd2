"""Worker-pool serving tier: planner shards behind a consistent-hash ring.

One :class:`WorkerPoolService` runs ``N`` planner worker *processes* (shards)
behind the same verb surface as the in-process
:class:`~repro.service.service.PlanningService`, so the stdlib HTTP front
(:class:`~repro.service.server.PlanningServer`) serves either interchangeably.
Each shard is a child process running its own single-threaded
``PlanningService`` (manual mode) — its own scheduler, its own plan arenas,
its own GIL — which is what buys cold-phase scaling past one core.

Routing.  Every request is routed by the frontier cache's request fingerprint
(:func:`~repro.service.frontier_cache.request_fingerprint`) over the
consistent-hash ring of live shards (:class:`~repro.service.routing.HashRing`),
so repeat and warm-start submissions of the same request always land on the
shard holding the parked session.

Two cache tiers.  Each shard keeps a *live* tier — parked
:class:`~repro.api.session.PlannerSession` objects, arena-resident, enabling
``resume()`` warm starts — in its private :class:`FrontierCache`; all shards
share one *persistent* tier, a :class:`~repro.bench.cache.JsonStore` directory
every shard's cache persists completed traces into and loads from.  When a
shard dies, its live tier dies with it, but its traces remain replayable by
whichever shard the ring reassigns the keys to.

Determinism.  A session's invocations execute serially, in order, inside one
shard, against a private arena — exactly the serial ``open_session`` sequence.
Sharding only changes *where* that sequence runs, so pool frontiers are
bit-identical to serial execution for any worker count, before and after a
shard rebalance.

IPC.  Parent and shard speak length-prefixed pickles over a
``multiprocessing.Pipe``: the parent sends ``submit`` / ``steer`` / ``cancel``
/ ``stats`` requests (correlated by ``req_id``) plus a final ``shutdown``; the
shard pushes ``update`` and terminal ``status`` messages per job and a
``heartbeat`` (pid + gauges) a few times per second so the parent's
``/healthz`` can spot silent crashes.  Steering crosses the pipe as the raw
``steer_request`` payload — parsed actions hold closures, which do not pickle.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import signal
import threading
import time
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Dict, Iterator, List, Mapping, Optional, Set, Union

from repro.api.registry import PlannerRegistry, planner_registry
from repro.api.request import OptimizeRequest, resolve_request
from repro.api.schema import OptimizationResult, SchemaError
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry, render_snapshots
from repro.service.frontier_cache import request_fingerprint
from repro.service.protocol import (
    HEALTH_DEGRADED,
    HEALTH_OK,
    JOB_FAILED,
    TERMINAL_STATES,
    health_payload,
    parse_steer,
    stats_payload,
)
from repro.service.routing import HashRing
from repro.service.scheduler import AdmissionError, Job
from repro.service.service import (
    PlanningService,
    ServiceError,
    UnknownTicketError,
)

#: The pool clock.  Heartbeat ages, drain windows and wait deadlines are
#: measured on the monotonic clock — a wall-clock step (NTP, suspend/resume)
#: must never flag a healthy shard as stale or cut a drain window short.
#: Module attribute so the fake-clock regression tests can monkeypatch it
#: (the same treatment ``repro.api.session._now`` gives Budget deadlines);
#: always called through the module global, never bound at construction.
_now = time.monotonic

#: Seconds between shard heartbeats.
HEARTBEAT_INTERVAL = 0.25

#: Heartbeat silence after which /healthz flags a shard (its process may be
#: alive but wedged); generous because a single optimizer invocation at paper
#: scale can legitimately run for a while.
HEARTBEAT_STALE_SECONDS = 30.0


# ----------------------------------------------------------------------
# Shard child process
# ----------------------------------------------------------------------
def shard_main(
    conn,
    shard_id: str,
    *,
    policy: str = "fair",
    max_sessions: int = 8,
    max_queue: int = 64,
    cache_bytes: int = 64 << 20,
    cache_dir: Optional[str] = None,
    heartbeat_interval: float = HEARTBEAT_INTERVAL,
) -> None:
    """Entry point of one worker process.

    Runs a single-threaded ``PlanningService`` (manual mode) and interleaves
    control-message handling with invocation timeslices: one pipe sweep, one
    ``step_once()``, push any new frontier updates / terminal statuses, beat.
    The parent coordinates shutdown over the pipe, so terminal signals are
    left to it (Ctrl-C in a terminal reaches the whole process group; the
    shard must not tear down mid-drain).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    service = PlanningService(
        policy=policy,
        workers=0,
        max_sessions=max_sessions,
        max_queue=max_queue,
        cache_bytes=cache_bytes,
        cache_dir=Path(cache_dir) if cache_dir else None,
    )
    local: Dict[str, str] = {}   # parent ticket -> local ticket
    sent: Dict[str, int] = {}    # parent ticket -> updates already pushed
    done: Set[str] = set()
    draining = False
    drain_deadline = 0.0
    last_beat = 0.0
    try:
        while True:
            handled = False
            while conn.poll(0):
                message = conn.recv()
                handled = True
                op = message.get("op")
                if op == "shutdown":
                    draining = True
                    drain_deadline = _now() + float(
                        message.get("drain_seconds") or 0.0
                    )
                    # Stop admitting; in-flight jobs keep their timeslices.
                    service._draining = True
                else:
                    _handle_request(conn, service, local, message)
            served = service.step_once()
            _push_progress(conn, service, local, sent, done)
            now = _now()
            if now - last_beat >= heartbeat_interval:
                last_beat = now
                # The heartbeat doubles as the observability uplink: finished
                # spans ride it to the parent (CLOCK_MONOTONIC is shared
                # across processes on Linux, so child timestamps land on the
                # parent's timeline), and the shard's metrics snapshot lets
                # the parent render /metrics with per-shard labels even when
                # a shard later wedges.
                conn.send(
                    {
                        "op": "heartbeat",
                        "shard_id": shard_id,
                        "pid": os.getpid(),
                        "stats": service.stats(),
                        "metrics": service.metrics_snapshot(),
                        "spans": obs_trace.drain(),
                    }
                )
            if draining and (served is None or now >= drain_deadline):
                break
            if not handled and served is None:
                conn.poll(heartbeat_interval)  # sleep until work or message
    except (EOFError, OSError, BrokenPipeError):
        pass  # parent went away; nothing left to report to
    finally:
        try:
            service.close()  # flushes the persistent cache tier
        except Exception:  # noqa: BLE001 - last-gasp cleanup
            pass
        try:
            # Final span drain rides the farewell so a drained shard leaves
            # no orphan spans behind (satellite: trace completeness after
            # SIGTERM-style shutdown).
            conn.send(
                {
                    "op": "bye",
                    "shard_id": shard_id,
                    "spans": obs_trace.drain(),
                    "metrics": service.metrics_snapshot(),
                }
            )
            conn.close()
        except (OSError, BrokenPipeError, ValueError):
            pass


def _handle_request(conn, service: PlanningService, local: Dict[str, str], message: Mapping) -> None:
    """Serve one correlated request; errors travel back as tagged replies.

    When the message carries a ``trace_context`` (the parent's span ids),
    that context is re-activated around the dispatch so every span the shard
    records — the ``rpc.recv`` envelope here and the admission/timeslice
    spans it encloses — parents under the submitting process's trace, and one
    request yields one coherent cross-process trace.
    """
    op = message.get("op")
    req_id = message.get("req_id")
    try:
        with obs_trace.activate_context(message.get("trace_context")):
            with obs_trace.span("rpc.recv", op=str(op), pid=os.getpid()):
                reply = _serve_request(service, local, message, op)
    except AdmissionError as exc:
        reply = {"error": str(exc), "error_kind": "admission"}
    except (SchemaError, ValueError, KeyError) as exc:
        reply = {
            "error": str(exc.args[0] if exc.args else exc),
            "error_kind": "bad_request",
        }
    except RuntimeError as exc:
        reply = {"error": str(exc), "error_kind": "conflict"}
    except Exception as exc:  # noqa: BLE001 - IPC boundary
        reply = {"error": f"{type(exc).__name__}: {exc}", "error_kind": "internal"}
    conn.send({"op": "reply", "req_id": req_id, **reply})


def _serve_request(
    service: PlanningService, local: Dict[str, str], message: Mapping, op
) -> dict:
    """Dispatch one shard op and build its reply payload."""
    if op == "submit":
        request = OptimizeRequest.from_dict(message["request"])
        ticket = message["ticket"]
        local[ticket] = service.submit(
            request,
            priority=message.get("priority", 0),
            deadline_seconds=message.get("deadline_seconds"),
            use_cache=message.get("use_cache", True),
        )
        job = service.job(local[ticket])
        # The shard-local Job carries the parent's trace context so the
        # scheduler re-activates it around every later timeslice of this
        # session — the timeslices run long after this RPC returns.
        job.trace_context = obs_trace.current_context()
        return {
            "accepted": {
                "cache_status": job.cache_status,
                "state": job.state,
                "replayed": job.replayed,
            }
        }
    if op == "steer":
        status = service.steer(local[message["ticket"]], dict(message["payload"]))
        return {"status": status}
    if op == "cancel":
        status = service.cancel(local[message["ticket"]])
        return {"status": status}
    if op == "stats":
        return {"stats": service.stats()}
    if op == "metrics":
        return {"metrics": service.metrics_snapshot(), "spans": obs_trace.drain()}
    if op == "export_session":
        return _export_session(service, message["key"])
    if op == "import_session":
        return _import_session(service, message["key"], message["blob"])
    return {"error": f"unknown op {op!r}", "error_kind": "bad_request"}


def _export_session(service: PlanningService, key: str) -> dict:
    """Detach, serialize and hand over the parked session for ``key``.

    The pickle carries every arena column, the bulk of the session.
    """
    session = (
        service.cache.pop_session(key) if service.cache is not None else None
    )
    if session is None:
        return {"found": False}
    blob = pickle.dumps(session)
    return {"found": True, "blob": blob, "inline_bytes": len(blob)}


def _import_session(service: PlanningService, key: str, blob: bytes) -> dict:
    """Attach a migrated session and park it against the persisted trace."""
    session = pickle.loads(blob)
    parked = service.cache is not None and service.cache.park_session(
        key, session
    )
    return {"parked": bool(parked)}


def _push_progress(
    conn,
    service: PlanningService,
    local: Dict[str, str],
    sent: Dict[str, int],
    done: Set[str],
) -> None:
    """Push new frontier updates and terminal statuses to the parent."""
    for ticket, local_ticket in local.items():
        if ticket in done:
            continue
        job = service.job(local_ticket)
        cursor = sent.get(ticket, 0)
        while cursor < len(job.updates):
            conn.send(
                {
                    "op": "update",
                    "ticket": ticket,
                    "payload": job.updates[cursor],
                    "alpha": job.alphas[cursor],
                    "plans_after": job.plans_after[cursor],
                }
            )
            cursor += 1
        sent[ticket] = cursor
        if job.terminal:
            status = dict(job.status_payload(include_result=True))
            status["ticket"] = ticket  # parent tickets are pool-global
            conn.send(
                {
                    "op": "status",
                    "ticket": ticket,
                    "status": status,
                    "replayed": job.replayed,
                }
            )
            done.add(ticket)


# ----------------------------------------------------------------------
# Parent-side shard handle
# ----------------------------------------------------------------------
class ShardHandle:
    """Parent-side view of one worker process: pipe, liveness, last gauges."""

    def __init__(self, shard_id: str, process, conn):
        self.shard_id = shard_id
        self.process = process
        self.conn = conn
        self.pid = process.pid
        self.send_lock = threading.Lock()
        self.alive = True
        self.shutdown_sent = False
        self.last_heartbeat = _now()
        self.stats: dict = {}
        #: Last metrics snapshot the shard shipped (heartbeat or RPC) — the
        #: /metrics fallback for a shard that stops answering.
        self.metrics: dict = {}
        self.reader: Optional[threading.Thread] = None

    def heartbeat_age(self) -> float:
        return _now() - self.last_heartbeat

    def backlog(self) -> int:
        scheduler = self.stats.get("scheduler", {})
        return int(scheduler.get("queued", 0)) + int(
            scheduler.get("live_sessions", 0)
        )

    def send(self, message: dict) -> None:
        with self.send_lock:
            self.conn.send(message)


# ----------------------------------------------------------------------
# The pool façade
# ----------------------------------------------------------------------
class WorkerPoolService:
    """N planner shards behind one consistent-hash ring.

    Mirrors the :class:`PlanningService` verb surface (submit / poll / stream
    / steer / cancel / wait / result / stats / health), so the HTTP server and
    the CLI serve either without caring which.  ``max_sessions``/``max_queue``
    are *per shard*.

    ``cache_dir`` is the shared persistent tier; when omitted, a temporary
    directory is created for the pool's lifetime (cross-shard replay after a
    worker death needs *some* shared store).
    """

    def __init__(
        self,
        workers: int = 2,
        policy: str = "fair",
        max_sessions: int = 8,
        max_queue: int = 64,
        cache_bytes: int = 64 << 20,
        cache_dir: Optional[Path] = None,
        registry: Optional[PlannerRegistry] = None,
        max_retained_jobs: int = 1024,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        start_method: str = "fork",
    ):
        if workers < 1:
            raise ValueError("worker pool needs at least one worker process")
        self._registry = registry if registry is not None else planner_registry()
        self._policy = policy
        self._max_sessions = max_sessions
        self._max_queue = max_queue
        self._cache_bytes = cache_bytes
        self._heartbeat_interval = heartbeat_interval
        self._tmpdir: Optional[TemporaryDirectory] = None
        if cache_dir is None:
            self._tmpdir = TemporaryDirectory(prefix="repro-pool-cache-")
            cache_dir = Path(self._tmpdir.name)
        self._cache_dir = Path(cache_dir)
        self._ctx = multiprocessing.get_context(start_method)
        #: One condition guards jobs, replies, ring and handle membership.
        self.condition = threading.Condition()
        self._jobs: Dict[str, Job] = {}
        self._job_shard: Dict[str, str] = {}
        self._replies: Dict[int, Optional[dict]] = {}
        self._req_ids = itertools.count(1)
        self._tickets = itertools.count(1)
        self._ring = HashRing()
        self._handles: Dict[str, ShardHandle] = {}
        #: Last shard each request fingerprint ran on — the migration trigger:
        #: when the ring reassigns a key, the parked session is pulled from
        #: its previous shard before the submit is routed.
        self._key_shard: Dict[str, str] = {}
        self.migrations = 0
        self.migrated_inline_bytes = 0
        #: The pool's own registry (front-process instruments); shard
        #: registries are merged in at render time with a ``shard`` label.
        self.metrics = MetricsRegistry()
        self._pool_submits = self.metrics.counter(
            "repro_pool_submits_total",
            "Submits routed through the worker pool front process.",
        )
        self.metrics.gauge(
            "repro_pool_workers", "Live worker shard processes."
        ).set_function(
            lambda: sum(
                1 for h in list(self._handles.values()) if h.alive
            )
        )
        self.metrics.gauge(
            "repro_pool_migrations",
            "Parked sessions migrated between shards after ring changes.",
        ).set_function(lambda: self.migrations)
        self.metrics.gauge(
            "repro_pool_migrated_inline_bytes",
            "Bytes serialized inline over the pipe by session migrations.",
        ).set_function(lambda: self.migrated_inline_bytes)
        self._max_retained_jobs = max_retained_jobs
        self._clock = time.monotonic
        self._closed = False
        self._draining = False
        for index in range(workers):
            self._spawn(f"shard-{index}")

    # ------------------------------------------------------------------
    def __enter__(self) -> "WorkerPoolService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def registry(self) -> PlannerRegistry:
        return self._registry

    @property
    def cache_dir(self) -> Path:
        """The shared persistent cache tier (every shard persists into it)."""
        return self._cache_dir

    @property
    def ring(self) -> HashRing:
        return self._ring

    def shards(self) -> List[ShardHandle]:
        with self.condition:
            return list(self._handles.values())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, shard_id: str) -> ShardHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=shard_main,
            name=f"repro-{shard_id}",
            args=(child_conn, shard_id),
            kwargs=dict(
                policy=self._policy,
                max_sessions=self._max_sessions,
                max_queue=self._max_queue,
                cache_bytes=self._cache_bytes,
                cache_dir=str(self._cache_dir),
                heartbeat_interval=self._heartbeat_interval,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = ShardHandle(shard_id, process, parent_conn)
        with self.condition:
            self._handles[shard_id] = handle
            self._ring.add(shard_id)
        reader = threading.Thread(
            target=self._reader,
            args=(handle,),
            name=f"repro-pool-reader-{shard_id}",
            daemon=True,
        )
        handle.reader = reader
        reader.start()
        return handle

    def add_shard(self, shard_id: Optional[str] = None) -> ShardHandle:
        """Grow the pool by one worker process (elastic scale-out).

        The new shard joins the consistent-hash ring immediately, which
        reassigns a slice of the key space to it.  Parked sessions whose key
        moved are *not* copied eagerly: the next submit of such a key
        migrates its session from the previous owner
        (:meth:`migrate_session`), so scale-out costs nothing for keys that
        never return.
        """
        with self.condition:
            if self._closed:
                raise ServiceError("worker pool is closed")
            if shard_id is None:
                taken = set(self._handles)
                index = len(taken)
                while f"shard-{index}" in taken:
                    index += 1
                shard_id = f"shard-{index}"
            existing = self._handles.get(shard_id)
            if existing is not None and existing.alive:
                raise RuntimeError(f"shard {shard_id!r} is still alive")
        return self._spawn(shard_id)

    def restart_shard(self, shard_id: str) -> ShardHandle:
        """Replace a dead shard with a fresh process under the same ring name.

        The new shard starts with an empty live tier but shares the
        persistent tier, so traces the dead shard completed replay from disk.
        """
        with self.condition:
            existing = self._handles.get(shard_id)
            if existing is not None and existing.alive:
                raise RuntimeError(f"shard {shard_id!r} is still alive")
        return self._spawn(shard_id)

    def kill_shard(self, shard_id: str) -> ShardHandle:
        """Hard-kill one worker (chaos hook for tests); waits for detection."""
        with self.condition:
            handle = self._handles[shard_id]
        handle.process.kill()
        if handle.reader is not None:
            handle.reader.join(timeout=10.0)
        handle.process.join(timeout=10.0)
        return handle

    def close(self, drain_seconds: Optional[float] = None) -> None:
        """Shut every shard down, optionally draining in-flight jobs first."""
        with self.condition:
            if self._closed:
                return
            self._draining = True
            handles = list(self._handles.values())
        for handle in handles:
            if not handle.alive:
                continue
            handle.shutdown_sent = True
            try:
                handle.send(
                    {"op": "shutdown", "drain_seconds": drain_seconds or 0.0}
                )
            except (OSError, BrokenPipeError):
                pass
        join_timeout = (drain_seconds or 0.0) + 10.0
        for handle in handles:
            handle.process.join(timeout=join_timeout)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
            if handle.process.is_alive():  # pragma: no cover - last resort
                handle.process.kill()
                handle.process.join(timeout=5.0)
        for handle in handles:
            if handle.reader is not None:
                handle.reader.join(timeout=5.0)
        with self.condition:
            self._closed = True
            self.condition.notify_all()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every submitted job is terminal; True when drained."""
        deadline = self._clock() + timeout if timeout is not None else None
        with self.condition:
            while any(not job.terminal for job in self._jobs.values()):
                remaining = 0.25
                if deadline is not None:
                    remaining = min(remaining, deadline - self._clock())
                    if remaining <= 0:
                        return False
                self.condition.wait(timeout=remaining)
            return True

    # ------------------------------------------------------------------
    # Reader thread (one per shard)
    # ------------------------------------------------------------------
    def _reader(self, handle: ShardHandle) -> None:
        while True:
            try:
                message = handle.conn.recv()
            except (EOFError, OSError):
                break
            try:
                self._dispatch(handle, message)
            except Exception:  # noqa: BLE001 - a bad message must not kill the reader
                continue
        self._on_shard_exit(handle)

    def _dispatch(self, handle: ShardHandle, message: Mapping) -> None:
        op = message.get("op")
        if op == "heartbeat":
            handle.last_heartbeat = _now()
            handle.stats = dict(message.get("stats") or {})
            if message.get("metrics"):
                handle.metrics = dict(message["metrics"])
            obs_trace.ingest(message.get("spans") or ())
            return
        if op == "reply":
            with self.condition:
                req_id = message.get("req_id")
                if req_id in self._replies:
                    self._replies[req_id] = dict(message)
                self.condition.notify_all()
            return
        if op == "update":
            with self.condition:
                job = self._jobs.get(message["ticket"])
                if job is not None:
                    job.record_update(
                        message["payload"],
                        message["alpha"],
                        message["plans_after"],
                    )
                self.condition.notify_all()
            return
        if op == "status":
            status = message["status"]
            with self.condition:
                job = self._jobs.get(message["ticket"])
                if job is not None and not job.terminal:
                    job.replayed = int(message.get("replayed", job.replayed))
                    job.cache_status = status.get("cache_status", job.cache_status)
                    job.error = status.get("error")
                    job.result_payload = status.get("result")
                    job.state = status["state"]
                    job.finished_at = self._clock()
                self.condition.notify_all()
            return
        if op == "bye":
            # A draining shard's farewell carries its final span drain and
            # metrics snapshot; ingest them so the trace has no orphans and
            # the last /metrics render still covers the departed shard.
            if message.get("metrics"):
                handle.metrics = dict(message["metrics"])
            obs_trace.ingest(message.get("spans") or ())
            return
        # Anything unknown needs no action.

    def _on_shard_exit(self, handle: ShardHandle) -> None:
        expected = handle.shutdown_sent
        with self.condition:
            handle.alive = False
            if (
                self._handles.get(handle.shard_id) is handle
                and handle.shard_id in self._ring
            ):
                self._ring.remove(handle.shard_id)
            if not expected:
                # Fail this shard's non-terminal jobs: their sessions died
                # with the process (completed traces remain replayable from
                # the shared persistent tier by the ring's new owners).
                for ticket, shard_id in self._job_shard.items():
                    if shard_id != handle.shard_id:
                        continue
                    job = self._jobs.get(ticket)
                    if job is not None and not job.terminal:
                        job.error = (
                            f"worker {handle.shard_id} (pid {handle.pid}) died"
                        )
                        job.state = JOB_FAILED
                        job.finished_at = self._clock()
            self.condition.notify_all()

    # ------------------------------------------------------------------
    # Correlated request/reply over the pipe
    # ------------------------------------------------------------------
    def _rpc(self, handle: ShardHandle, message: dict, timeout: float = 60.0) -> dict:
        with obs_trace.span(
            "rpc.send", op=str(message.get("op")), shard=handle.shard_id
        ):
            return self._rpc_traced(handle, message, timeout)

    def _rpc_traced(self, handle: ShardHandle, message: dict, timeout: float) -> dict:
        req_id = next(self._req_ids)
        with self.condition:
            self._replies[req_id] = None
        try:
            handle.send({**message, "req_id": req_id})
        except (OSError, BrokenPipeError):
            with self.condition:
                self._replies.pop(req_id, None)
            raise ServiceError(
                f"worker {handle.shard_id} is unreachable"
            ) from None
        deadline = self._clock() + timeout
        with self.condition:
            while self._replies.get(req_id) is None:
                if not handle.alive:
                    self._replies.pop(req_id, None)
                    raise ServiceError(
                        f"worker {handle.shard_id} died before replying"
                    )
                remaining = deadline - self._clock()
                if remaining <= 0:
                    self._replies.pop(req_id, None)
                    raise TimeoutError(
                        f"no reply from {handle.shard_id} within {timeout} s"
                    )
                self.condition.wait(timeout=min(0.25, remaining))
            return self._replies.pop(req_id)

    @staticmethod
    def _raise_reply_error(reply: Mapping) -> None:
        error = reply.get("error")
        if error is None:
            return
        kind = reply.get("error_kind")
        if kind == "admission":
            raise AdmissionError(error)
        if kind == "conflict":
            raise RuntimeError(error)
        if kind == "bad_request":
            raise ValueError(error)
        raise ServiceError(error)

    # ------------------------------------------------------------------
    # The five verbs
    # ------------------------------------------------------------------
    def submit(
        self,
        request: OptimizeRequest,
        priority: int = 0,
        deadline_seconds: Optional[float] = None,
        use_cache: bool = True,
    ) -> str:
        """Route by request fingerprint, admit on the owning shard.

        The ``pool.submit`` span is the cross-process trace root: its
        context travels inside the submit RPC, the shard re-activates it
        around admission and every later timeslice, and the shard's spans
        ride heartbeats back into this process's ring — one submit, one
        trace, parent and worker pids on one monotonic timeline.
        """
        with obs_trace.span(
            "pool.submit",
            workload=request.workload,
            algorithm=request.algorithm,
        ) as pool_span:
            ticket = self._submit_traced(
                request, priority, deadline_seconds, use_cache
            )
            pool_span.set(ticket=ticket)
            return ticket

    def _submit_traced(
        self,
        request: OptimizeRequest,
        priority: int,
        deadline_seconds: Optional[float],
        use_cache: bool,
    ) -> str:
        if self._closed:
            raise ServiceError("worker pool is closed")
        if self._draining:
            raise AdmissionError("worker pool is draining; not admitting")
        # Validate and fingerprint in the front process: malformed requests
        # fail fast (HTTP 400) without a pipe round-trip, and the fingerprint
        # *is* the routing key.
        canonical = self._registry.get(request.algorithm).name
        resolved = resolve_request(request)
        key = request_fingerprint(resolved, canonical)
        with self.condition:
            self._prune_retained_locked()
            handle = self._shard_for_locked(key)
            previous_id = self._key_shard.get(key)
            previous = (
                self._handles.get(previous_id)
                if previous_id is not None and previous_id != handle.shard_id
                else None
            )
        if previous is not None and previous.alive and use_cache:
            # The ring reassigned this key (a shard joined or left since the
            # last run): pull the parked session over so the new owner can
            # warm-start instead of recomputing.
            self.migrate_session(key, previous, handle)
        with self.condition:
            ticket = f"job-{next(self._tickets):06d}"
            job = Job(
                ticket,
                request,
                session=None,
                priority=priority,
                deadline_seconds=deadline_seconds,
                clock=self._clock,
            )
            job.cache_key = key
            self._jobs[ticket] = job
            self._job_shard[ticket] = handle.shard_id
        try:
            reply = self._rpc(
                handle,
                {
                    "op": "submit",
                    "ticket": ticket,
                    "request": request.to_dict(),
                    "priority": priority,
                    "deadline_seconds": deadline_seconds,
                    "use_cache": use_cache,
                    "trace_context": obs_trace.current_context(),
                },
            )
            self._raise_reply_error(reply)
        except Exception:
            with self.condition:
                self._jobs.pop(ticket, None)
                self._job_shard.pop(ticket, None)
            raise
        accepted = reply["accepted"]
        with self.condition:
            self._key_shard[key] = handle.shard_id
            job.cache_status = accepted["cache_status"]
            job.replayed = int(accepted.get("replayed", 0))
            if (
                not job.terminal
                and accepted["state"] not in TERMINAL_STATES
            ):
                # Terminal submit-time states (cache hits) are applied by the
                # shard's status message, which carries the result payload —
                # never mark the job finished before its result is here.
                job.state = accepted["state"]
            self.condition.notify_all()
        self._pool_submits.inc()
        return ticket

    def migrate_session(
        self, key: str, source: ShardHandle, target: ShardHandle
    ) -> bool:
        """Move the parked session for ``key`` from ``source`` to ``target``.

        Best-effort: returns ``True`` only when the source held a parked
        session *and* the target parked it against the shared persistent
        trace.  The session travels as one pickle over the pipe; the
        ``migrated_inline_bytes`` gauge records its size.
        """
        try:
            exported = self._rpc(handle=source, message={"op": "export_session", "key": key})
        except (ServiceError, TimeoutError):
            return False
        if exported.get("error") or not exported.get("found"):
            return False
        try:
            imported = self._rpc(
                handle=target,
                message={
                    "op": "import_session",
                    "key": key,
                    "blob": exported["blob"],
                },
            )
        except (ServiceError, TimeoutError):
            return False
        if imported.get("error") or not imported.get("parked"):
            return False
        with self.condition:
            self.migrations += 1
            self.migrated_inline_bytes += int(exported.get("inline_bytes", 0))
            self._key_shard[key] = target.shard_id
        return True

    def poll(self, ticket: str, include_result: bool = True) -> dict:
        job = self._job(ticket)
        with self.condition:
            return job.status_payload(include_result=include_result)

    def stream(
        self, ticket: str, timeout: Optional[float] = None
    ) -> Iterator[dict]:
        """Yield ``frontier_update`` payloads until the job is terminal."""
        job = self._job(ticket)
        deadline = self._clock() + timeout if timeout is not None else None
        index = 0
        while True:
            with self.condition:
                while index >= len(job.updates) and not job.terminal:
                    if self._closed:
                        return
                    remaining = 0.25
                    if deadline is not None:
                        remaining = min(remaining, deadline - self._clock())
                        if remaining <= 0:
                            raise TimeoutError(
                                f"no update from {ticket} within {timeout} s"
                            )
                    self.condition.wait(timeout=remaining)
                if index < len(job.updates):
                    payload = job.updates[index]
                    index += 1
                else:
                    return
            yield payload

    def steer(self, ticket: str, action: Union[Mapping, object]) -> dict:
        """Forward a ``steer_request`` payload to the job's shard.

        Only wire payloads cross the pipe (parsed actions hold closures,
        which do not pickle); they are validated here so malformed payloads
        fail with 400 before the round-trip.
        """
        if not isinstance(action, Mapping):
            raise ValueError(
                "worker-pool steering requires the steer_request payload"
            )
        parse_steer(action)
        job = self._job(ticket)
        with self.condition:
            if job.terminal:
                raise RuntimeError(f"job {ticket} already {job.state}")
        handle = self._handle_for(ticket)
        reply = self._rpc(
            handle, {"op": "steer", "ticket": ticket, "payload": dict(action)}
        )
        self._raise_reply_error(reply)
        return self.poll(ticket, include_result=False)

    def cancel(self, ticket: str) -> dict:
        job = self._job(ticket)
        with self.condition:
            terminal = job.terminal
        if not terminal:
            handle = self._handle_for(ticket)
            reply = self._rpc(handle, {"op": "cancel", "ticket": ticket})
            self._raise_reply_error(reply)
            # The terminal status message races the reply; wait for it so the
            # caller observes the cancelled state, like the in-process path.
            deadline = self._clock() + 10.0
            with self.condition:
                while not job.terminal and self._clock() < deadline:
                    self.condition.wait(timeout=0.1)
        return self.poll(ticket)

    # ------------------------------------------------------------------
    # Results and introspection
    # ------------------------------------------------------------------
    def wait(self, ticket: str, timeout: Optional[float] = None) -> dict:
        job = self._job(ticket)
        deadline = self._clock() + timeout if timeout is not None else None
        with self.condition:
            while not job.terminal:
                if self._closed:
                    raise ServiceError(
                        f"worker pool closed while {ticket} was {job.state}"
                    )
                remaining = 0.25
                if deadline is not None:
                    remaining = min(remaining, deadline - self._clock())
                    if remaining <= 0:
                        raise TimeoutError(
                            f"{ticket} not finished within {timeout} s"
                        )
                self.condition.wait(timeout=remaining)
            return job.status_payload()

    def result(
        self, ticket: str, timeout: Optional[float] = None
    ) -> OptimizationResult:
        status = self.wait(ticket, timeout=timeout)
        if status["state"] == JOB_FAILED:
            raise ServiceError(
                f"job {ticket} failed: {status.get('error') or 'unknown error'}"
            )
        payload = status.get("result")
        if payload is None:
            raise ServiceError(
                f"job {ticket} ended {status['state']} without a result"
            )
        return OptimizationResult.from_dict(payload)

    def job(self, ticket: str) -> Job:
        return self._job(ticket)

    def tickets(self) -> List[str]:
        with self.condition:
            return list(self._jobs)

    def shard_of(self, ticket: str) -> str:
        """Which shard owns (or owned) this job — routing tests rely on it."""
        with self.condition:
            shard_id = self._job_shard.get(ticket)
        if shard_id is None:
            raise UnknownTicketError(f"unknown ticket {ticket!r}")
        return shard_id

    # ------------------------------------------------------------------
    # Gauges
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Aggregate + per-shard gauges as one ``service_stats`` payload.

        Live shards are asked for fresh numbers; dead (or slow) shards
        contribute their last heartbeat snapshot.
        """
        shards: List[dict] = []
        with self.condition:
            handles = list(self._handles.values())
        for handle in handles:
            stats = handle.stats
            if handle.alive:
                try:
                    stats = self._rpc(handle, {"op": "stats"}, timeout=5.0)[
                        "stats"
                    ]
                except (ServiceError, TimeoutError):
                    stats = handle.stats
            shards.append(
                {
                    "shard_id": handle.shard_id,
                    "pid": handle.pid,
                    "alive": handle.alive,
                    "last_heartbeat_age_seconds": round(
                        handle.heartbeat_age(), 3
                    ),
                    "scheduler": dict(stats.get("scheduler", {})),
                    "cache": dict(stats.get("cache", {})),
                }
            )
        scheduler = {
            "policy": self._policy,
            "workers": len(shards),
            "max_sessions": self._max_sessions * max(len(shards), 1),
            "max_queue": self._max_queue * max(len(shards), 1),
        }
        for gauge in (
            "live_sessions",
            "queued",
            "max_live_seen",
            "submitted",
            "invocations_run",
            "finished",
            "failed",
            "cancelled",
        ):
            scheduler[gauge] = sum(
                int(shard["scheduler"].get(gauge, 0)) for shard in shards
            )
        cache = {"persistent": True}
        for gauge in (
            "entries",
            "bytes_in_use",
            "max_bytes",
            "live_sessions",
            "trace_bytes",
            "arena_bytes",
            "hits",
            "warm_starts",
            "misses",
            "stores",
            "evictions",
        ):
            cache[gauge] = sum(
                int(shard["cache"].get(gauge, 0)) for shard in shards
            )
        with self.condition:
            cache["migrations"] = self.migrations
            cache["migrated_inline_bytes"] = self.migrated_inline_bytes
        return stats_payload(scheduler, cache, shards=shards)

    def render_metrics(self) -> str:
        """Prometheus text exposition aggregating every shard's registry.

        Live shards are asked for a fresh snapshot over the pipe (the reply
        also piggybacks their latest span drain); dead or slow shards
        contribute the snapshot from their last heartbeat, so a scrape never
        blocks on — or omits — a wedged worker.  Shard families render with a
        ``shard="shard-N"`` label; the pool's own instruments render bare.
        """
        labelled = []
        with self.condition:
            handles = list(self._handles.values())
        for handle in handles:
            snapshot = handle.metrics
            if handle.alive:
                try:
                    reply = self._rpc(handle, {"op": "metrics"}, timeout=5.0)
                    if reply.get("metrics"):
                        snapshot = dict(reply["metrics"])
                        handle.metrics = snapshot
                    obs_trace.ingest(reply.get("spans") or ())
                except (ServiceError, TimeoutError):
                    snapshot = handle.metrics
            if snapshot:
                labelled.append(({"shard": handle.shard_id}, snapshot))
        labelled.append(({}, self.metrics.snapshot()))
        return render_snapshots(labelled)

    def health(self) -> dict:
        """Per-worker liveness; ``status != "ok"`` once any shard is dead."""
        with self.condition:
            handles = list(self._handles.values())
        workers = []
        status = HEALTH_OK
        for handle in handles:
            alive = handle.alive and handle.process.is_alive()
            age = handle.heartbeat_age()
            if not alive or age > HEARTBEAT_STALE_SECONDS:
                status = HEALTH_DEGRADED
            scheduler = handle.stats.get("scheduler", {})
            workers.append(
                {
                    "shard_id": handle.shard_id,
                    "pid": handle.pid,
                    "alive": alive,
                    "last_heartbeat_age_seconds": round(age, 3),
                    "backlog": int(scheduler.get("queued", 0)),
                    "live_sessions": int(scheduler.get("live_sessions", 0)),
                }
            )
        if not handles:
            status = HEALTH_DEGRADED
        return health_payload(status, workers)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _job(self, ticket: str) -> Job:
        with self.condition:
            job = self._jobs.get(ticket)
        if job is None:
            raise UnknownTicketError(f"unknown ticket {ticket!r}")
        return job

    def _handle_for(self, ticket: str) -> ShardHandle:
        with self.condition:
            shard_id = self._job_shard.get(ticket)
            handle = self._handles.get(shard_id) if shard_id else None
        if handle is None or not handle.alive:
            raise ServiceError(
                f"the worker owning {ticket} is no longer alive"
            )
        return handle

    def _shard_for_locked(self, key: str) -> ShardHandle:
        try:
            shard_id = self._ring.assign(key)
        except LookupError:
            raise AdmissionError("no live worker shards; retry later") from None
        return self._handles[shard_id]

    def _prune_retained_locked(self) -> None:
        if len(self._jobs) <= self._max_retained_jobs:
            return
        for ticket in list(self._jobs):
            if len(self._jobs) <= self._max_retained_jobs:
                break
            if self._jobs[ticket].terminal:
                del self._jobs[ticket]
                self._job_shard.pop(ticket, None)
