"""Wire payloads of the planning service: submit, status, steer.

The service speaks the same versioned JSON dialect as the planner API
(:mod:`repro.api.schema`): every payload carries a ``schema_version``/``kind``
envelope, cost components encode ``+inf`` as ``"inf"``, and the request and
result bodies *are* the existing :class:`~repro.api.request.OptimizeRequest`
and :class:`~repro.api.schema.OptimizationResult` payloads — the wire layer
adds only the multiplexing vocabulary (tickets, job states, steering verbs)
around them.

Payload kinds
-------------

``submit_request``
    An :class:`OptimizeRequest` payload under the ``request`` key.
``job_status``
    One job's snapshot: ticket, state, cache status, progress counters, and —
    once finished — the embedded ``optimization_result`` payload.
``steer_request``
    Remote steering: ``change_bounds`` (a bounds vector) or ``select`` (an
    index into the most recently visualized frontier).
``service_stats``
    Scheduler and frontier-cache gauges; in worker-pool mode the aggregate
    gauges are accompanied by a ``shards`` list of per-worker snapshots.
``service_health``
    Liveness: overall status plus one entry per worker (pid, heartbeat age,
    backlog depth).  The wire layer maps ``status != "ok"`` to HTTP 503.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.api.request import OptimizeRequest
from repro.api.schema import (
    SchemaError,
    _envelope,
    check_envelope,
    cost_from_jsonable,
)
from repro.core.control import ChangeBounds, SelectPlan, UserAction
from repro.plans.plan import Plan

#: ``state`` values of a job over its lifetime.
JOB_QUEUED = "queued"        # admitted to the backlog, no live session yet
JOB_RUNNING = "running"      # live session, receives scheduler timeslices
JOB_FINISHED = "finished"    # session completed (any finish reason)
JOB_FAILED = "failed"        # an invocation raised; see ``error``
JOB_CANCELLED = "cancelled"  # cancelled by the client

JOB_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_FINISHED, JOB_FAILED, JOB_CANCELLED)

#: Terminal states: no further updates will be streamed.
TERMINAL_STATES = (JOB_FINISHED, JOB_FAILED, JOB_CANCELLED)

#: ``cache_status`` values: how the frontier cache served the request.
CACHE_MISS = "miss"    # cold: every invocation was computed
CACHE_HIT = "hit"      # replayed from a cached frontier, zero invocations run
CACHE_WARM = "warm"    # warm start: cached prefix replayed, refinement resumed
CACHE_BYPASS = "bypass"  # wall-clock budget: results are timing-dependent

CACHE_STATUSES = (CACHE_MISS, CACHE_HIT, CACHE_WARM, CACHE_BYPASS)


# ----------------------------------------------------------------------
# submit_request
# ----------------------------------------------------------------------
def submit_payload(request: OptimizeRequest) -> Dict[str, object]:
    """The wire form of one job submission."""
    return {**_envelope("submit_request"), "request": request.to_dict()}


def parse_submit(payload: Mapping) -> OptimizeRequest:
    """Inverse of :func:`submit_payload`; other keys of the payload are ignored."""
    check_envelope(payload, "submit_request")
    request_payload = payload.get("request")
    if not isinstance(request_payload, Mapping):
        raise SchemaError("submit_request is missing its 'request' payload")
    return OptimizeRequest.from_dict(request_payload)


# ----------------------------------------------------------------------
# steer_request
# ----------------------------------------------------------------------
def steer_bounds_payload(bounds: Sequence[object]) -> Dict[str, object]:
    """Wire form of a remote ``ChangeBounds`` (bounds as a JSON cost list)."""
    return {
        **_envelope("steer_request"),
        "action": "change_bounds",
        "bounds": list(bounds),
    }


def steer_select_payload(index: int) -> Dict[str, object]:
    """Wire form of a remote plan selection by frontier index."""
    return {**_envelope("steer_request"), "action": "select", "index": int(index)}


def parse_steer(payload: Mapping) -> UserAction:
    """Decode a steer payload into the session-level :class:`UserAction`.

    ``select`` resolves against the frontier visualized when the action is
    *applied* (the next iteration boundary), exactly like a local
    :meth:`~repro.api.session.PlannerSession.select`; the index is clamped to
    the frontier the user ends up steering against.
    """
    check_envelope(payload, "steer_request")
    action = payload.get("action")
    if action == "change_bounds":
        bounds = payload.get("bounds")
        if not isinstance(bounds, Sequence) or isinstance(bounds, (str, bytes)):
            raise SchemaError("change_bounds requires a 'bounds' list")
        return ChangeBounds(cost_from_jsonable(bounds))
    if action == "select":
        index = payload.get("index", 0)
        if not isinstance(index, int) or isinstance(index, bool) or index < 0:
            raise SchemaError(f"select index must be a non-negative int, got {index!r}")

        def chooser(frontier: Sequence[Plan]) -> Plan:
            return frontier[min(index, len(frontier) - 1)]

        return SelectPlan(chooser=chooser)
    raise SchemaError(
        f"unknown steer action {action!r}; expected 'change_bounds' or 'select'"
    )


# ----------------------------------------------------------------------
# job_status
# ----------------------------------------------------------------------
def job_status_payload(
    ticket: str,
    state: str,
    *,
    workload: str,
    algorithm: str,
    cache_status: str = CACHE_MISS,
    invocations_completed: int = 0,
    frontier_size: int = 0,
    latest_alpha: Optional[float] = None,
    elapsed_seconds: float = 0.0,
    finish_reason: Optional[str] = None,
    error: Optional[str] = None,
    result: Optional[Mapping] = None,
) -> Dict[str, object]:
    """One job's wire snapshot (the body of poll responses)."""
    if state not in JOB_STATES:
        raise ValueError(f"unknown job state {state!r}; expected one of {JOB_STATES}")
    if cache_status not in CACHE_STATUSES:
        raise ValueError(
            f"unknown cache status {cache_status!r}; expected one of {CACHE_STATUSES}"
        )
    return {
        **_envelope("job_status"),
        "ticket": ticket,
        "state": state,
        "cache_status": cache_status,
        "workload": workload,
        "algorithm": algorithm,
        "invocations_completed": invocations_completed,
        "frontier_size": frontier_size,
        "latest_alpha": latest_alpha,
        "elapsed_seconds": elapsed_seconds,
        "finish_reason": finish_reason,
        "error": error,
        "result": dict(result) if result is not None else None,
    }


def check_job_status(payload: Mapping) -> Mapping:
    """Validate a job_status envelope and state; returns the payload."""
    check_envelope(payload, "job_status")
    state = payload.get("state")
    if state not in JOB_STATES:
        raise SchemaError(
            f"unknown job state {state!r}; expected one of {JOB_STATES}"
        )
    return payload


def stats_payload(
    scheduler: Mapping,
    cache: Mapping,
    shards: Optional[Sequence[Mapping]] = None,
) -> Dict[str, object]:
    """Scheduler plus frontier-cache gauges under one envelope.

    In worker-pool mode ``scheduler``/``cache`` carry the pool-wide aggregate
    and ``shards`` the per-worker snapshots (each with ``shard_id``, ``pid``,
    its own scheduler and cache gauges); single-process services omit it.
    """
    payload = {
        **_envelope("service_stats"),
        "scheduler": dict(scheduler),
        "cache": dict(cache),
    }
    if shards is not None:
        payload["shards"] = [dict(shard) for shard in shards]
    return payload


# ----------------------------------------------------------------------
# service_health
# ----------------------------------------------------------------------
#: Overall health states.
HEALTH_OK = "ok"
HEALTH_DEGRADED = "degraded"  # at least one worker is dead -> HTTP 503


def health_payload(
    status: str, workers: Sequence[Mapping]
) -> Dict[str, object]:
    """The ``/healthz`` body: overall status plus per-worker liveness.

    Each worker entry carries ``shard_id``, ``pid``, ``alive``,
    ``last_heartbeat_age_seconds`` and ``backlog`` so load tests and CI can
    detect silent worker crashes instead of hanging on a dead shard.
    """
    if status not in (HEALTH_OK, HEALTH_DEGRADED):
        raise ValueError(f"unknown health status {status!r}")
    return {
        **_envelope("service_health"),
        "status": status,
        "workers": [dict(worker) for worker in workers],
    }
