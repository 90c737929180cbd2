"""Invocation-granularity scheduling of concurrent planner sessions.

The anytime loop has a natural preemption point: one optimizer invocation.
The scheduler multiplexes many live :class:`~repro.api.session.PlannerSession`
objects over a small worker pool by handing out *timeslices of exactly one
invocation*: pick the next session in round-robin order, run ``advance()`` +
``apply()``, record the streamed frontier update, repeat.  Every admitted
request therefore gets a usable frontier early, and the longer it stays
admitted the better its frontier — the paper's Algorithm 1 property turned
into a multi-tenancy mechanism.

Admission control: at most ``max_sessions`` sessions hold live optimizer
state; further submissions wait in a FIFO backlog of bounded length, and
once the backlog is full :meth:`Scheduler.submit` raises
:class:`AdmissionError` — backpressure the wire layer translates to HTTP 503.

Determinism: a session's invocations always execute one at a time, in order,
against its own private plan factory and arena, so the frontier a request
receives is bit-identical to running it serially through ``open_session`` —
regardless of worker count or what other sessions are admitted.
With ``workers=0`` the scheduler runs in *manual* mode (:meth:`step_once`),
which the property tests use to exercise adversarial interleavings
deterministically.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.api.request import OptimizeRequest
from repro.api.session import PlannerSession
from repro.core.control import ChangeBounds, UserAction
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.service.protocol import (
    CACHE_MISS,
    JOB_CANCELLED,
    JOB_FAILED,
    JOB_FINISHED,
    JOB_QUEUED,
    JOB_RUNNING,
    TERMINAL_STATES,
    job_status_payload,
)


class AdmissionError(RuntimeError):
    """The backlog is full; the client should retry later (HTTP 503)."""


class Job:
    """One admitted request: its session, its stream of updates, its clocks.

    All mutable fields are guarded by the owning scheduler's condition lock,
    except during a timeslice, when the executing worker owns ``session``
    exclusively (``in_flight`` marks that window).
    """

    def __init__(
        self,
        ticket: str,
        request: OptimizeRequest,
        session: Optional[PlannerSession],
        clock: Callable[[], float] = time.monotonic,
    ):
        self.ticket = ticket
        self.request = request
        self.session = session
        self.clock = clock
        self.submitted_at = clock()
        self.state = JOB_QUEUED
        self.cache_status = CACHE_MISS
        #: Request fingerprint, set by the service when caching is enabled.
        self.cache_key: Optional[str] = None
        self.in_flight = False
        self.cancel_requested = False
        #: Remote steering action, handed to the session at the next slice
        #: boundary by the executing worker (never written into the session
        #: from another thread — the worker owns the session during a slice).
        self.pending_action: Optional[UserAction] = None
        #: Trace context of the submitting request (``{"trace_id","span_id"}``),
        #: re-activated around every timeslice so invocation spans parent to
        #: the submit span even across the shard pipe.
        self.trace_context: Optional[dict] = None
        self.error: Optional[str] = None
        self.result_payload: Optional[dict] = None
        #: ``frontier_update`` payloads in stream order (replayed + computed).
        self.updates: List[dict] = []
        #: Arrival clock of each update (for latency percentiles).
        self.update_times: List[float] = []
        self.alphas: List[float] = []
        self.plans_after: List[int] = []
        #: Number of leading ``updates`` that were replayed from the cache.
        self.replayed = 0
        #: The worker shard running the job (worker-pool relay records only).
        self.shard_id: Optional[str] = None
        self.started_at: Optional[float] = None
        self.first_update_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def finish(
        self,
        state: str,
        error: Optional[str] = None,
        result: Optional[dict] = None,
    ) -> bool:
        """The one terminal transition; False, changing nothing, if already ended.

        Once other threads can see the job, callers hold the condition that
        guards it and notify it.
        """
        if state not in TERMINAL_STATES:
            raise ValueError(f"{state!r} is not a terminal job state")
        if self.terminal:
            return False
        self.state = state
        self.finished_at = self.clock()
        if error is not None:
            self.error = error
        if result is not None:
            self.result_payload = result
        return True

    def record_update(self, payload: dict, alpha: float, plans_total: int) -> None:
        self.updates.append(payload)
        now = self.clock()
        self.update_times.append(now)
        if self.first_update_at is None:
            self.first_update_at = now
        self.alphas.append(alpha)
        self.plans_after.append(plans_total)

    def status_payload(self, include_result: bool = True) -> dict:
        finish_reason = None
        if self.result_payload is not None:
            finish_reason = self.result_payload.get("finish_reason")
        last_update = self.updates[-1] if self.updates else None
        return job_status_payload(
            self.ticket,
            self.state,
            workload=self.request.workload,
            algorithm=self.request.algorithm,
            cache_status=self.cache_status,
            invocations_completed=len(self.updates),
            frontier_size=(
                len(last_update["frontier"]) if last_update is not None else 0
            ),
            latest_alpha=self.alphas[-1] if self.alphas else None,
            elapsed_seconds=(self.finished_at or self.clock()) - self.submitted_at,
            finish_reason=finish_reason,
            error=self.error,
            result=self.result_payload if include_result else None,
        )


class Scheduler:
    """Admit jobs, round-robin invocation timeslices, enforce backpressure."""

    def __init__(
        self,
        max_sessions: int = 8,
        max_queue: int = 64,
        workers: int = 1,
        clock: Callable[[], float] = time.monotonic,
        on_finish: Optional[Callable[[Job], None]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        if max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        if workers < 0:
            raise ValueError("workers must be non-negative (0 = manual stepping)")
        self.max_sessions = max_sessions
        self.max_queue = max_queue
        self.workers = workers
        self.clock = clock
        self.on_finish = on_finish
        #: One condition guards all scheduling state; the planning service
        #: shares it to stream updates without a second lock hierarchy.
        self.condition = threading.Condition()
        self._backlog: List[Job] = []
        self._live: Dict[str, Job] = {}
        self._rotation: Deque[str] = deque()
        self._threads: List[threading.Thread] = []
        self._closed = False
        # Instruments (the registry is the single source of truth; ``stats``
        # reads them).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._submitted = self.metrics.counter(
            "repro_scheduler_submitted_total", "Jobs accepted by the scheduler"
        )
        self._invocations = self.metrics.counter(
            "repro_scheduler_invocations_total",
            "Optimizer invocation timeslices executed",
        )
        self._jobs_done = self.metrics.counter(
            "repro_scheduler_jobs_total",
            "Jobs reaching a terminal state, by outcome",
            labelnames=("outcome",),
        )
        self._live_gauge = self.metrics.gauge(
            "repro_scheduler_live_sessions", "Sessions holding live optimizer state"
        )
        self._live_gauge.set_function(lambda: len(self._live))
        self._queued_gauge = self.metrics.gauge(
            "repro_scheduler_queued", "Jobs waiting in the admission backlog"
        )
        self._queued_gauge.set_function(lambda: len(self._backlog))
        self._max_live_gauge = self.metrics.gauge(
            "repro_scheduler_max_live_seen",
            "High-water mark of concurrently live sessions",
        )
        self._invocation_seconds = self.metrics.histogram(
            "repro_invocation_seconds",
            "Duration of one optimizer invocation timeslice",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the worker threads (no-op in manual mode or if started)."""
        with self.condition:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            missing = self.workers - len(self._threads)
        for index in range(missing):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-scheduler-{len(self._threads) + index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def close(self) -> None:
        """Stop accepting work and wake every worker and waiter."""
        with self.condition:
            self._closed = True
            self.condition.notify_all()
        for thread in self._threads:
            thread.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Submission and control
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> Job:
        """Admit a job (or enqueue it); raises :class:`AdmissionError` when full."""
        with self.condition:
            if self._closed:
                raise AdmissionError("scheduler is shut down")
            if (
                len(self._live) >= self.max_sessions
                and len(self._backlog) >= self.max_queue
            ):
                raise AdmissionError(
                    f"backlog full ({len(self._backlog)} queued, "
                    f"{len(self._live)} live sessions); retry later"
                )
            job.state = JOB_QUEUED
            self._backlog.append(job)
            self._submitted.inc()
            self._admit_locked()
            self.condition.notify_all()
            return job

    def steer(self, job: Job, action: UserAction) -> None:
        """Queue a steering action, applied at the job's next slice boundary.

        Malformed actions are rejected synchronously (so the wire layer can
        answer 400) instead of poisoning the job's next timeslice.
        """
        with self.condition:
            if job.terminal:
                raise RuntimeError(f"job {job.ticket} already {job.state}")
            if job.session is None:
                raise RuntimeError(f"job {job.ticket} has no live session to steer")
            if isinstance(action, ChangeBounds):
                dimensions = len(job.session.bounds)
                if len(action.bounds) != dimensions:
                    raise ValueError(
                        f"bounds have {len(action.bounds)} components but "
                        f"job {job.ticket} optimizes {dimensions} metrics"
                    )
            # Stash on the job, not the session: the executing worker owns
            # the session during a slice, and writing session state from
            # this thread could race apply()'s queued-action swap.  The
            # worker hands the action over at the next slice boundary.
            job.pending_action = action

    def cancel(self, job: Job) -> None:
        """Cancel a job; a slice already executing completes first."""
        with self.condition:
            if job.terminal:
                return
            job.cancel_requested = True
            if job.in_flight:
                return  # the executing slice ends the job at its boundary
            job.in_flight = True  # held here now: no worker picks it up
        self._end_job(job, JOB_CANCELLED)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step_once(self) -> Optional[str]:
        """Manual mode: run exactly one timeslice; returns the ticket served.

        Returns ``None`` when no session is runnable.  Deterministic given the
        submission order — the property tests drive adversarial interleavings
        through this entry point.
        """
        with self.condition:
            job = self._pick_locked()
            if job is None:
                return None
            job.in_flight = True
        self._run_slice(job)
        return job.ticket

    def run_until_idle(self) -> int:
        """Manual mode: step until nothing is runnable; returns slices run."""
        slices = 0
        while self.step_once() is not None:
            slices += 1
        return slices

    def _worker_loop(self) -> None:
        while True:
            with self.condition:
                job = self._pick_locked()
                while job is None and not self._closed:
                    self.condition.wait(timeout=0.5)
                    job = self._pick_locked()
                if job is None:  # closed and nothing runnable
                    return
                job.in_flight = True
            self._run_slice(job)

    def _run_slice(self, job: Job) -> None:
        """One invocation timeslice; ``job.in_flight`` is already set."""
        try:
            if job.cancel_requested:
                self._end_job(job, JOB_CANCELLED)
                return
            session = job.session
            with obs_trace.activate_context(job.trace_context):
                with obs_trace.span("scheduler.timeslice", ticket=job.ticket):
                    update = session.advance()
            with self.condition:
                action, job.pending_action = job.pending_action, None
            session.apply(action)
            payload = update.to_dict()
            plans_total = session.driver.factory.counters.total_plans_built
            finished = session.finished
            result_payload = session.result().to_dict() if finished else None
            terminal_state = (
                JOB_FINISHED
                if finished
                else JOB_CANCELLED if job.cancel_requested else None
            )
            self._invocations.inc()
            self._invocation_seconds.observe(update.invocation.duration_seconds)
            with self.condition:
                job.record_update(payload, update.invocation.alpha, plans_total)
                if terminal_state is None:
                    # Not terminal: release the slice so the next pick can
                    # serve this job again.
                    job.in_flight = False
                self.condition.notify_all()
            if terminal_state is None:
                return
            if finished:
                job.result_payload = result_payload
                # Record into the frontier cache BEFORE the job becomes
                # observably terminal (in_flight still shields it from other
                # workers): a client that sees "finished" and immediately
                # resubmits the same request must hit the cache.
                self._notify_finish(job)
            # A job cancelled at the slice boundary runs the hook after it
            # ends: it may still re-park the (unfinished, never-steered)
            # session for warm starts.
            self._end_job(job, terminal_state, hook=not finished)
        except Exception as exc:  # noqa: BLE001 - surfaced on the job
            self._end_job(
                job, JOB_FAILED, error=f"{type(exc).__name__}: {exc}", hook=False
            )

    def _end_job(
        self, job: Job, state: str, error: Optional[str] = None, hook: bool = True
    ) -> None:
        """End a job this thread holds (``in_flight`` is set).

        The session goes last: a retained :class:`Job` serves
        poll/stream/result from its recorded payloads, and holding the
        session (and its plan arena) would pin optimizer state for as long
        as the record lives.  The finish hook parked it if it was worth it.
        """
        with self.condition:
            job.in_flight = False
            self._finalize_locked(job, state, error)
            self.condition.notify_all()
        if hook:
            self._notify_finish(job)
        job.session = None

    # ------------------------------------------------------------------
    # Internals (condition held)
    # ------------------------------------------------------------------
    def _admit_locked(self) -> None:
        while self._backlog and len(self._live) < self.max_sessions:
            job = self._backlog.pop(0)
            job.state = JOB_RUNNING
            job.started_at = self.clock()
            self._live[job.ticket] = job
            self._rotation.append(job.ticket)
            self._max_live_gauge.set(
                max(self._max_live_gauge.value(), len(self._live))
            )

    def _finalize_locked(
        self, job: Job, state: str, error: Optional[str] = None
    ) -> None:
        if job.terminal:
            return
        was_live = job.ticket in self._live
        self._live.pop(job.ticket, None)
        if job.ticket in self._rotation:
            self._rotation.remove(job.ticket)
        if not was_live and job in self._backlog:
            self._backlog.remove(job)
        result = None
        if job.result_payload is None and job.session is not None:
            # Cancelled/failed mid-run: report what the session has so far
            # (finish_reason stays "in_progress" unless the session ended).
            try:
                result = job.session.result().to_dict()
            except Exception:  # pragma: no cover - reporting is best-effort
                pass
        job.finish(state, error=error, result=result)
        # Outcome labels are the terminal state names.
        self._jobs_done.inc(outcome=state)
        self._admit_locked()

    def _notify_finish(self, job: Job) -> None:
        if self.on_finish is not None:
            self.on_finish(job)

    def _pick_locked(self) -> Optional[Job]:
        """The next runnable live job in round-robin order, rotated to the back."""
        if self._closed:
            # Stop handing out slices once close() is underway, so workers
            # wind down after at most their current invocation and close()
            # can actually join them.
            return None
        for ticket in self._rotation:
            job = self._live[ticket]
            if not job.in_flight and not job.terminal:
                break
        else:
            return None
        self._rotation.remove(ticket)
        self._rotation.append(ticket)
        return job

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        with self.condition:
            return {
                "workers": self.workers,
                "max_sessions": self.max_sessions,
                "max_queue": self.max_queue,
                "live_sessions": len(self._live),
                "queued": len(self._backlog),
                "max_live_seen": int(self._max_live_gauge.value()),
                "submitted": int(self._submitted.value()),
                "invocations_run": int(self._invocations.value()),
                "finished": int(self._jobs_done.value(outcome="finished")),
                "failed": int(self._jobs_done.value(outcome="failed")),
                "cancelled": int(self._jobs_done.value(outcome="cancelled")),
            }
