"""The in-process planning service façade.

:class:`PlanningService` is the one object behind every serving surface: the
CLI ``serve`` command wraps it with the HTTP wire layer, each worker process
of the sharded pool runs one, and tests/examples embed it in-process.  It
composes

* a :class:`~repro.service.scheduler.Scheduler` multiplexing live
  :class:`~repro.api.session.PlannerSession` objects at invocation
  granularity, and
* a :class:`~repro.service.frontier_cache.FrontierCache` that answers repeat
  requests by replay and warm-starts refinement of cached-but-coarser
  frontiers,

behind five verbs: ``submit``, ``poll``, ``stream``, ``steer``, ``cancel``.
``submit`` rejects an ``algorithm`` outside
:data:`~repro.api.planners.PLANNERS` with ``KeyError`` and fingerprints the
name as given.

The differential contract: for every worker count, the frontier a request
receives is bit-identical to running the same ``OptimizeRequest`` through
:func:`repro.api.open_session` serially — sessions
never share plan arenas or optimizer state, each session's invocations run one
at a time in order, and cache replays/warm starts reuse only deterministic
prefixes of the identical invocation sequence.  (Requests whose *budget*
carries a wall-clock deadline are inherently timing-dependent; they bypass the
cache and carry ``cache_status="bypass"``.)
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable, Optional, Union

from repro.api.planners import planner
from repro.api.request import OptimizeRequest, resolve_request
from repro.api.session import open_resolved
from repro.core.control import UserAction
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry, render_snapshot
from repro.service.frontier_cache import (
    FrontierCache,
    request_fingerprint,
)
from repro.service.protocol import (
    CACHE_BYPASS,
    CACHE_HIT,
    CACHE_MISS,
    CACHE_WARM,
    HEALTH_OK,
    JOB_FINISHED,
    health_payload,
    parse_steer,
    stats_payload,
)
from repro.service.jobs import JobTable, ServiceError
from repro.service.scheduler import AdmissionError, Job, Scheduler


class PlanningService(JobTable):
    """Multiplex many concurrent planner sessions over one process.

    The blocking verbs come from :class:`JobTable`, over the scheduler's
    condition.

    Parameters
    ----------
    workers:
        Scheduler worker threads; ``0`` selects manual mode, where the caller
        drives execution with :meth:`step_once`/:meth:`run_until_idle` (used
        by the deterministic interleaving tests).
    max_sessions:
        Admission control: maximum concurrently live sessions.
    max_queue:
        Backlog length before :meth:`submit` raises
        :class:`~repro.service.scheduler.AdmissionError`.
    cache:
        A :class:`FrontierCache`, ``None`` to build a default in-memory one,
        or ``False`` to disable cross-request caching entirely.
    cache_bytes / cache_dir:
        Budget and optional persistence directory of the default cache.
    max_retained_jobs:
        Terminal job records kept for poll/stream/result before the oldest
        are dropped (see :class:`JobTable`).
    """

    def __init__(
        self,
        workers: int = 1,
        max_sessions: int = 8,
        max_queue: int = 64,
        cache: Union[FrontierCache, None, bool] = None,
        cache_bytes: int = 64 << 20,
        cache_dir: Optional[Path] = None,
        clock: Callable[[], float] = time.monotonic,
        max_retained_jobs: int = 1024,
    ):
        #: One registry per service: scheduler and (owned) cache instruments
        #: register here, and ``render_metrics`` serves it as ``/metrics``.
        self.metrics = MetricsRegistry()
        if cache is False:
            self._cache: Optional[FrontierCache] = None
        elif cache is None or cache is True:
            self._cache = FrontierCache(
                max_bytes=cache_bytes, persist_dir=cache_dir, metrics=self.metrics
            )
        else:
            self._cache = cache
        self._scheduler = Scheduler(
            max_sessions=max_sessions,
            max_queue=max_queue,
            workers=workers,
            clock=clock,
            on_finish=self._on_job_finish,
            metrics=self.metrics,
        )
        super().__init__(self._scheduler.condition, clock, max_retained_jobs)
        self._submits_total = self.metrics.counter(
            "repro_service_submits_total",
            "Requests accepted by the service, by cache decision",
            labelnames=("cache_status",),
        )
        self._draining = False
        if workers > 0:
            self._scheduler.start()

    # ------------------------------------------------------------------
    def close(self, drain_seconds: Optional[float] = None) -> None:
        """Shut the service down, optionally draining in-flight jobs first.

        With ``drain_seconds`` the service first stops admitting (submits
        raise :class:`AdmissionError`, i.e. HTTP 503), waits up to that long
        for every admitted job to reach a terminal state, then closes.  The
        persistent cache tier is always flushed before the scheduler stops.
        """
        self._draining = True
        if drain_seconds is not None and drain_seconds > 0:
            self.drain(timeout=drain_seconds)
        if self._cache is not None:
            self._cache.flush()
        super().close()
        self._scheduler.close()

    def health(self) -> dict:
        """The ``service_health`` payload (single-process: one worker entry)."""
        scheduler = self._scheduler
        with scheduler.condition:
            backlog = len(scheduler._backlog)
            live = len(scheduler._live)
        return health_payload(
            HEALTH_OK,
            [
                {
                    "shard_id": "local",
                    "pid": os.getpid(),
                    "alive": not self._closed,
                    "last_heartbeat_age_seconds": 0.0,
                    "backlog": backlog,
                    "live_sessions": live,
                }
            ],
        )

    @property
    def scheduler(self) -> Scheduler:
        return self._scheduler

    @property
    def cache(self) -> Optional[FrontierCache]:
        return self._cache

    # ------------------------------------------------------------------
    # The five verbs
    # ------------------------------------------------------------------
    def submit(self, request: OptimizeRequest) -> str:
        """Admit one request; returns its ticket.

        Raises ``ValueError``/``KeyError`` for malformed requests and
        :class:`AdmissionError` when the backlog is full.
        """
        with obs_trace.span(
            "service.submit",
            workload=request.workload,
            algorithm=request.algorithm,
        ) as submit_span:
            ticket = self._submit_traced(request)
            submit_span.set(ticket=ticket)
            return ticket

    def _submit_traced(self, request: OptimizeRequest) -> str:
        if self._closed:
            raise ServiceError("planning service is closed")
        if self._draining:
            raise AdmissionError("planning service is draining; not admitting")
        planner(request.algorithm)  # an unknown planner fails the submit
        resolved = resolve_request(request)
        key: Optional[str] = None
        decision = None
        cache_status = CACHE_MISS
        if self._cache is not None:
            key = request_fingerprint(resolved, request.algorithm)
            if request.budget.deadline_seconds is not None:
                cache_status = CACHE_BYPASS
            else:
                decision = self._cache.match(key, request.budget)
                cache_status = decision.status

        job = self._new_job(request)
        job.cache_status = cache_status
        job.cache_key = key
        # Timeslices run on scheduler workers: carry the submit span's
        # context onto the job so invocation spans parent to it.
        job.trace_context = obs_trace.current_context()
        self._submits_total.inc(cache_status=cache_status)

        if decision is not None and decision.status == CACHE_HIT:
            self._finish_replay(job, decision)
            self._register(job)
            return job.ticket

        if decision is not None and decision.status == CACHE_WARM:
            job.session = decision.session
            job.session.resume(request.budget)
            self._replay(job, decision.entry, decision.entry.invocations)
        else:
            job.session = open_resolved(resolved)

        self._register(job)
        try:
            self._scheduler.submit(job)
        except AdmissionError:
            # Never lose a parked session to backpressure: re-park it (the
            # finish hook records the replayed prefix with the session).
            self._unregister(job.ticket)
            if decision is not None and decision.status == CACHE_WARM:
                self._on_job_finish(job)
            raise
        return job.ticket

    def steer(self, ticket: str, action: Union[UserAction, dict]) -> dict:
        """Apply remote steering (a ``steer_request`` payload or an action)."""
        if isinstance(action, dict):
            action = parse_steer(action)
        self._scheduler.steer(self.job(ticket), action)
        return self.poll(ticket, include_result=False)

    def cancel(self, ticket: str) -> dict:
        """Cancel a job (the slice currently executing completes first)."""
        self._scheduler.cancel(self.job(ticket))
        return self._settle(ticket)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Scheduler and cache gauges as a ``service_stats`` payload."""
        cache_stats = self._cache.stats() if self._cache is not None else {}
        return stats_payload(self._scheduler.stats(), cache_stats)

    def metrics_snapshot(self) -> dict:
        """Every instrument family of this service (pipe/JSON-safe).

        Includes an externally supplied cache's registry: its families
        (``repro_cache_*``) are disjoint from the service's own, so the
        union is well-formed.
        """
        families = list(self.metrics.snapshot()["families"])
        if self._cache is not None and self._cache.metrics is not self.metrics:
            families.extend(self._cache.metrics.snapshot()["families"])
        return {"families": families}

    def render_metrics(self) -> str:
        """The Prometheus text exposition backing ``/metrics``."""
        return render_snapshot(self.metrics_snapshot())

    # ------------------------------------------------------------------
    # Manual-mode stepping (workers=0)
    # ------------------------------------------------------------------
    def step_once(self) -> Optional[str]:
        return self._scheduler.step_once()

    def run_until_idle(self) -> int:
        return self._scheduler.run_until_idle()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _replay(job: Job, entry, count: int) -> None:
        """Record the first ``count`` cached updates on a new job."""
        for index in range(count):
            job.record_update(
                entry.updates[index], entry.alphas[index], entry.plans_after[index]
            )
        job.replayed = count

    def _finish_replay(self, job: Job, decision) -> None:
        self._replay(job, decision.entry, decision.stop_index)
        job.started_at = job.submitted_at
        # Not registered yet, so no other thread sees the job: no lock.
        job.finish(
            JOB_FINISHED,
            result=decision.entry.result_payload(
                decision.stop_index, decision.finish_reason
            ),
        )

    def _on_job_finish(self, job: Job) -> None:
        """Scheduler callback: record terminating runs in the frontier cache.

        For successfully finishing jobs the scheduler invokes this *before*
        the job becomes observably terminal, so a client that sees
        ``finished`` and immediately resubmits is guaranteed to hit the
        cache.  Cancelled jobs land here after finalization: their trace is a
        valid deterministic prefix and their (unfinished) session — possibly
        a popped warm-start session — is re-parked rather than lost.  Failed
        and steered runs are never recorded.
        """
        if self._cache is None or job.cache_key is None:
            return
        session = job.session
        if (
            session is None
            or session.steered
            or not job.alphas
            or job.error is not None
        ):
            return
        self._record_job(job, session)

    def _record_job(self, job: Job, session) -> None:
        factory = session.driver.factory
        self._cache.record(
            job.cache_key,
            workload=job.request.workload,
            algorithm=session.algorithm,
            query_name=session.driver.query.name,
            table_count=session.driver.query.table_count,
            metric_names=tuple(factory.metric_set.names),
            levels=session.driver.schedule.levels,
            refines=session.driver.refines,
            alphas=list(job.alphas),
            updates=list(job.updates),
            plans_after=list(job.plans_after),
            session=session,
        )
