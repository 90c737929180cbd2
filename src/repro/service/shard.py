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
shard holding the parked session.  The ring is fixed at start-up and parked
sessions never leave their shard.

Two cache tiers.  Each shard keeps a *live* tier — parked
:class:`~repro.api.session.PlannerSession` objects, arena-resident, enabling
``resume()`` warm starts — in its private :class:`FrontierCache`; all shards
share one *persistent* tier, a
:class:`~repro.service.frontier_cache.JsonStore` directory every shard's
cache persists completed traces into and loads from.  When a shard dies, its
live tier dies with it, but its traces remain replayable by whichever shard
the ring reassigns the keys to; a key without a parked session on its new
shard is served by that replay or by a cold run, both bit-identical to
serial execution.

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
``/healthz`` can spot silent crashes.  A request that fails in the shard
replies with the exception itself, which the parent re-raises, so both tiers
raise the same types.  Steering crosses the pipe as the raw ``steer_request``
payload — parsed actions hold closures, which do not pickle.

One job table.  The shard's ``PlanningService`` owns each job; the parent
answers poll / stream / wait / result from a relay record in the
:class:`~repro.service.jobs.JobTable` both tiers share, stamped on its own
clock.  A shard forgets a job once it has pushed its terminal status, and a
message the parent cannot apply fails the job it names.
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
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

from repro.api.planners import planner
from repro.api.request import OptimizeRequest, resolve_request
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry, render_snapshots
from repro.service.frontier_cache import request_fingerprint
from repro.service.jobs import JobTable, ServiceError
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
from repro.service.service import PlanningService

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

#: A shard's open jobs: parent ticket -> (shard-local job, updates pushed).
OpenJobs = Dict[str, Tuple[Job, int]]


# ----------------------------------------------------------------------
# Shard child process
# ----------------------------------------------------------------------
def shard_main(
    conn,
    shard_id: str,
    *,
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
        workers=0,
        max_sessions=max_sessions,
        max_queue=max_queue,
        cache_bytes=cache_bytes,
        cache_dir=Path(cache_dir) if cache_dir else None,
    )
    open_jobs: OpenJobs = {}
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
                    _handle_request(conn, service, open_jobs, message)
            served = service.step_once()
            _push_progress(conn, service, open_jobs)
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


def _handle_request(
    conn, service: PlanningService, open_jobs: OpenJobs, message: Mapping
) -> None:
    """Serve one correlated request; a failure replies with the exception.

    When the message carries a ``trace_context`` (the parent's span ids),
    that context is re-activated around the dispatch so every span the shard
    records — the ``rpc.recv`` envelope here and the admission/timeslice
    spans it encloses — parents under the submitting process's trace, and one
    request yields one coherent cross-process trace.
    """
    op = message.get("op")
    try:
        with obs_trace.activate_context(message.get("trace_context")):
            with obs_trace.span("rpc.recv", op=str(op), pid=os.getpid()):
                reply = _serve_request(service, open_jobs, message, op)
    except Exception as exc:  # noqa: BLE001 - the parent re-raises it
        reply = {"error": _portable(exc)}
    conn.send({"op": "reply", "req_id": message.get("req_id"), **reply})


def _portable(exc: Exception) -> Exception:
    """``exc`` as the parent will unpickle it, else a :class:`ServiceError`.

    An exception that cannot cross the pipe would kill the parent's reader.
    """
    try:
        return pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - any pickling failure
        return ServiceError(f"{type(exc).__name__}: {exc}")


def _serve_request(
    service: PlanningService, open_jobs: OpenJobs, message: Mapping, op
) -> dict:
    """Dispatch one shard op and build its reply payload."""
    if op == "submit":
        request = OptimizeRequest.from_dict(message["request"])
        job = service.job(service.submit(request))
        # The shard-local Job carries the parent's trace context so the
        # scheduler re-activates it around every later timeslice of this
        # session — the timeslices run long after this RPC returns.
        job.trace_context = obs_trace.current_context()
        open_jobs[message["ticket"]] = (job, 0)
        return {
            "accepted": {
                "cache_status": job.cache_status,
                "state": job.state,
                "replayed": job.replayed,
            }
        }
    # A job missing from ``open_jobs`` has had its terminal status pushed:
    # answer as the in-process service answers for a terminal job.
    if op == "steer":
        opened = open_jobs.get(message["ticket"])
        if opened is None:
            raise RuntimeError(f"job {message['ticket']} already ended")
        service.steer(opened[0].ticket, dict(message["payload"]))
        return {}
    if op == "cancel":
        opened = open_jobs.get(message["ticket"])
        if opened is not None:  # else there is nothing left to cancel
            service.cancel(opened[0].ticket)
        return {}
    if op == "stats":
        return {"stats": service.stats()}
    if op == "metrics":
        return {"metrics": service.metrics_snapshot(), "spans": obs_trace.drain()}
    raise ValueError(f"unknown op {op!r}")


def _push_progress(conn, service: PlanningService, open_jobs: OpenJobs) -> None:
    """Push new frontier updates and terminal statuses to the parent.

    A job leaves ``open_jobs`` and the shard's job table with its terminal
    status: the parent answers from its relay record from then on.
    """
    for ticket, (job, sent) in list(open_jobs.items()):
        for index in range(sent, len(job.updates)):
            conn.send(
                {
                    "op": "update",
                    "ticket": ticket,
                    "payload": job.updates[index],
                    "alpha": job.alphas[index],
                    "plans_after": job.plans_after[index],
                }
            )
        open_jobs[ticket] = (job, len(job.updates))
        if job.terminal:
            conn.send(
                {
                    "op": "status",
                    "ticket": ticket,
                    "status": job.status_payload(include_result=True),
                    "replayed": job.replayed,
                }
            )
            del open_jobs[ticket]
            service._unregister(job.ticket)


def _sum_gauges(snapshots: Iterable[Mapping]) -> Dict[str, object]:
    """Sum every integer gauge over the shards' snapshots."""
    total: Dict[str, object] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            if isinstance(value, int):
                total[name] = total.get(name, 0) + value
    return total


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
        #: ``req_id`` of every RPC waiting on this shard's reply (guarded by
        #: the pool's condition).
        self.waiting: Set[int] = set()

    def heartbeat_age(self) -> float:
        return _now() - self.last_heartbeat

    def send(self, message: dict) -> None:
        with self.send_lock:
            self.conn.send(message)


# ----------------------------------------------------------------------
# The pool façade
# ----------------------------------------------------------------------
class WorkerPoolService(JobTable):
    """N planner shards behind one consistent-hash ring.

    Mirrors the :class:`PlanningService` verb surface (submit / poll / stream
    / steer / cancel / wait / result / stats / health), so the HTTP server and
    the CLI serve either without caring which; the blocking verbs come from
    the shared :class:`JobTable`, over the pool's own condition.
    ``max_sessions``/``max_queue`` are *per shard*.

    ``cache_dir`` is the shared persistent tier; when omitted, a temporary
    directory is created for the pool's lifetime (cross-shard replay after a
    worker death needs *some* shared store).
    """

    def __init__(
        self,
        workers: int = 2,
        max_sessions: int = 8,
        max_queue: int = 64,
        cache_bytes: int = 64 << 20,
        cache_dir: Optional[Path] = None,
        max_retained_jobs: int = 1024,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
    ):
        if workers < 1:
            raise ValueError("worker pool needs at least one worker process")
        #: One condition guards jobs, replies, ring and handle membership.
        super().__init__(threading.Condition(), time.monotonic, max_retained_jobs)
        self._max_sessions = max_sessions
        self._max_queue = max_queue
        self._cache_bytes = cache_bytes
        self._heartbeat_interval = heartbeat_interval
        self._tmpdir: Optional[TemporaryDirectory] = None
        if cache_dir is None:
            self._tmpdir = TemporaryDirectory(prefix="repro-pool-cache-")
            cache_dir = Path(self._tmpdir.name)
        self._cache_dir = Path(cache_dir)
        self._ctx = multiprocessing.get_context("fork")
        self._replies: Dict[int, Optional[dict]] = {}
        self._req_ids = itertools.count(1)
        self._ring = HashRing()
        self._handles: Dict[str, ShardHandle] = {}
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
        self._draining = False
        for index in range(workers):
            self._spawn(f"shard-{index}")

    # ------------------------------------------------------------------
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
        super().close()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

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
            except Exception as exc:  # noqa: BLE001 - a bad message must not kill the reader
                self._fail_named_job(handle, message, exc)
        self._on_shard_exit(handle)

    def _fail_named_job(self, handle: ShardHandle, message, exc: Exception) -> None:
        """Fail the job an unappliable message names; drop one naming none."""
        ticket = message.get("ticket") if isinstance(message, Mapping) else None
        with self.condition:
            job = self._jobs.get(ticket) if isinstance(ticket, str) else None
            if job is not None and job.finish(
                JOB_FAILED,
                error=f"{handle.shard_id} sent a malformed {message.get('op')!r} "
                f"message: {type(exc).__name__}: {exc}",
            ):
                self.condition.notify_all()

    def _dispatch(self, handle: ShardHandle, message: Mapping) -> None:
        op = message["op"]
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
                if req_id is None:
                    # No waiter can be told apart, so fail every RPC waiting
                    # on this shard now instead of at its timeout.  An
                    # unknown req_id is a late answer to an RPC that timed
                    # out, and is dropped.
                    for waiting in handle.waiting:
                        self._replies[waiting] = {
                            "error": ServiceError(
                                f"{handle.shard_id} sent a reply without a req_id"
                            )
                        }
                elif req_id in self._replies:
                    self._replies[req_id] = dict(message)
                self.condition.notify_all()
            return
        if op == "update":
            update = (message["payload"], message["alpha"], message["plans_after"])
            with self.condition:
                job = self._jobs.get(message["ticket"])
                if job is not None and not job.terminal:
                    job.record_update(*update)
                self.condition.notify_all()
            return
        if op == "status":
            status = message["status"]
            replayed = int(message["replayed"])
            cache_status = status["cache_status"]
            with self.condition:
                job = self._jobs.get(message["ticket"])
                if job is not None and job.finish(
                    status["state"], error=status.get("error"), result=status.get("result")
                ):
                    job.replayed = replayed
                    job.cache_status = cache_status
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
        raise ValueError(f"unknown op {op!r}")

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
                error = f"worker {handle.shard_id} (pid {handle.pid}) died"
                for job in self._jobs.values():
                    if job.shard_id == handle.shard_id:
                        job.finish(JOB_FAILED, error=error)
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
            handle.waiting.add(req_id)
        try:
            try:
                handle.send({**message, "req_id": req_id})
            except (OSError, BrokenPipeError):
                raise ServiceError(
                    f"worker {handle.shard_id} is unreachable"
                ) from None
            deadline = self._clock() + timeout
            with self.condition:
                while self._replies.get(req_id) is None:
                    if not handle.alive:
                        raise ServiceError(
                            f"worker {handle.shard_id} died before replying"
                        )
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"no reply from {handle.shard_id} within {timeout} s"
                        )
                    self.condition.wait(timeout=min(0.25, remaining))
                reply = self._replies[req_id]
        finally:
            with self.condition:
                self._replies.pop(req_id, None)
                handle.waiting.discard(req_id)
        if "error" in reply:
            raise reply["error"]  # the shard's own exception
        return reply

    # ------------------------------------------------------------------
    # The five verbs
    # ------------------------------------------------------------------
    def submit(self, request: OptimizeRequest) -> str:
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
            ticket = self._submit_traced(request)
            pool_span.set(ticket=ticket)
            return ticket

    def _submit_traced(self, request: OptimizeRequest) -> str:
        if self._closed:
            raise ServiceError("worker pool is closed")
        if self._draining:
            raise AdmissionError("worker pool is draining; not admitting")
        # Validate and fingerprint in the front process: malformed requests
        # fail fast (HTTP 400) without a pipe round-trip, and the fingerprint
        # *is* the routing key.
        planner(request.algorithm)  # an unknown planner fails the submit
        resolved = resolve_request(request)
        key = request_fingerprint(resolved, request.algorithm)
        with self.condition:
            handle = self._shard_for_locked(key)
        job = self._new_job(request)
        job.cache_key = key
        job.shard_id = handle.shard_id
        self._register(job)
        try:
            accepted = self._rpc(
                handle,
                {
                    "op": "submit",
                    "ticket": job.ticket,
                    "request": request.to_dict(),
                    "trace_context": obs_trace.current_context(),
                },
            )["accepted"]
        except Exception:
            self._unregister(job.ticket)
            raise
        with self.condition:
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
        return job.ticket

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
        job = self.job(ticket)
        if job.terminal:
            raise RuntimeError(f"job {ticket} already {job.state}")
        self._rpc(
            self._handle_for(job),
            {"op": "steer", "ticket": ticket, "payload": dict(action)},
        )
        return self.poll(ticket, include_result=False)

    def cancel(self, ticket: str) -> dict:
        """Cancel a job; returns its status once the shard's answer lands."""
        job = self.job(ticket)
        if not job.terminal:
            self._rpc(self._handle_for(job), {"op": "cancel", "ticket": ticket})
        return self._settle(ticket)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def shard_of(self, ticket: str) -> str:
        """Which shard owns (or owned) this job — routing tests rely on it."""
        return self.job(ticket).shard_id

    # ------------------------------------------------------------------
    # Gauges
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Aggregate + per-shard gauges as one ``service_stats`` payload.

        Live shards are asked for fresh numbers; dead (or slow) shards
        contribute their last heartbeat snapshot.
        """
        shards: List[dict] = []
        for handle in self.shards():
            reply = self._ask(handle, "stats")
            stats = reply["stats"] if reply else handle.stats
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
        scheduler = _sum_gauges(shard["scheduler"] for shard in shards)
        scheduler["workers"] = len(shards)
        cache = _sum_gauges(shard["cache"] for shard in shards)
        cache["persistent"] = True
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
        for handle in self.shards():
            reply = self._ask(handle, "metrics")
            if reply:
                if reply.get("metrics"):
                    handle.metrics = dict(reply["metrics"])
                obs_trace.ingest(reply.get("spans") or ())
            if handle.metrics:
                labelled.append(({"shard": handle.shard_id}, handle.metrics))
        labelled.append(({}, self.metrics.snapshot()))
        return render_snapshots(labelled)

    def health(self) -> dict:
        """Per-worker liveness; ``status != "ok"`` once any shard is dead."""
        handles = self.shards()
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
    def _ask(self, handle: ShardHandle, op: str) -> Optional[dict]:
        """A live shard's reply to ``op``; None from a dead or slow shard."""
        if handle.alive:
            try:
                return self._rpc(handle, {"op": op}, timeout=5.0)
            except (ServiceError, TimeoutError):
                pass
        return None

    def _handle_for(self, job: Job) -> ShardHandle:
        with self.condition:
            handle = self._handles.get(job.shard_id)
        if handle is None or not handle.alive:
            raise ServiceError(
                f"the worker owning {job.ticket} is no longer alive"
            )
        return handle

    def _shard_for_locked(self, key: str) -> ShardHandle:
        try:
            shard_id = self._ring.assign(key)
        except LookupError:
            raise AdmissionError("no live worker shards; retry later") from None
        return self._handles[shard_id]
