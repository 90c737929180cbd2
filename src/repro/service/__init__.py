"""Concurrent planning service: many anytime sessions, one process.

The paper's Algorithm 1 is *anytime* — each cheap invocation refines a usable
Pareto frontier — which makes it natural to multiplex: interleave invocations
of many concurrent sessions and every admitted query gets a frontier early,
improving the longer it stays admitted.  This package is that serving layer:

* :class:`~repro.service.scheduler.Scheduler` — FIFO admission control plus
  round-robin timeslicing at invocation granularity,
* :class:`~repro.service.frontier_cache.FrontierCache` — cross-request
  frontier reuse: replay for repeat requests, warm-started refinement for
  cached-but-coarser frontiers,
* :class:`~repro.service.jobs.JobTable` — the ticket → job records both
  serving tiers answer poll / stream / wait / result / drain from,
* :class:`~repro.service.service.PlanningService` — the in-process façade
  (submit / poll / stream / steer / cancel) the CLI, benchmarks and examples
  use directly,
* :class:`~repro.service.server.PlanningServer` /
  :class:`~repro.service.client.ServiceClient` — the stdlib-only JSON wire
  layer (``repro-moqo serve`` / ``repro-moqo submit``),
* :class:`~repro.service.shard.WorkerPoolService` /
  :class:`~repro.service.routing.HashRing` — the sharded tier: N planner
  worker processes behind a consistent-hash ring keyed by request
  fingerprint, with a per-shard live cache tier and a shared persistent tier
  (``repro-moqo serve --workers N``).

Quickstart::

    from repro.api import OptimizeRequest
    from repro.service import PlanningService

    with PlanningService(workers=2) as service:
        ticket = service.submit(OptimizeRequest(workload="gen:star:5:42"))
        for update in service.stream(ticket):
            print(update["invocation"]["resolution"], len(update["frontier"]))
        result = service.result(ticket)      # OptimizationResult
"""

from repro.service.client import ServiceClient, ServiceClientError
from repro.service.frontier_cache import (
    CacheEntry,
    Decision,
    FrontierCache,
    canonical_workload_id,
    request_fingerprint,
    serial_stop,
)
from repro.service.protocol import (
    CACHE_BYPASS,
    CACHE_HIT,
    CACHE_MISS,
    CACHE_STATUSES,
    CACHE_WARM,
    HEALTH_DEGRADED,
    HEALTH_OK,
    JOB_CANCELLED,
    JOB_FAILED,
    JOB_FINISHED,
    JOB_QUEUED,
    JOB_RUNNING,
    JOB_STATES,
    TERMINAL_STATES,
    health_payload,
    job_status_payload,
    parse_steer,
    parse_submit,
    steer_bounds_payload,
    steer_select_payload,
    stats_payload,
    submit_payload,
)
from repro.service.jobs import JobTable, ServiceError, UnknownTicketError
from repro.service.routing import DEFAULT_REPLICAS, HashRing
from repro.service.scheduler import AdmissionError, Job, Scheduler
from repro.service.server import PlanningServer
from repro.service.service import PlanningService
from repro.service.shard import ShardHandle, WorkerPoolService, shard_main

__all__ = [
    # façade
    "PlanningService",
    "ServiceError",
    "UnknownTicketError",
    # worker pool
    "WorkerPoolService",
    "ShardHandle",
    "shard_main",
    "HashRing",
    "DEFAULT_REPLICAS",
    # scheduler and job records
    "Scheduler",
    "Job",
    "JobTable",
    "AdmissionError",
    # frontier cache
    "FrontierCache",
    "CacheEntry",
    "Decision",
    "serial_stop",
    "request_fingerprint",
    "canonical_workload_id",
    # wire layer
    "PlanningServer",
    "ServiceClient",
    "ServiceClientError",
    # protocol
    "submit_payload",
    "parse_submit",
    "steer_bounds_payload",
    "steer_select_payload",
    "parse_steer",
    "job_status_payload",
    "stats_payload",
    "health_payload",
    "HEALTH_OK",
    "HEALTH_DEGRADED",
    "JOB_STATES",
    "TERMINAL_STATES",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_FINISHED",
    "JOB_FAILED",
    "JOB_CANCELLED",
    "CACHE_STATUSES",
    "CACHE_MISS",
    "CACHE_HIT",
    "CACHE_WARM",
    "CACHE_BYPASS",
]
