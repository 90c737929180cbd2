"""Unified planner API: one request/budget/session/result surface.

The paper's central claim is that a single *anytime* interface — invoke,
visualize the frontier, steer, invoke again — subsumes one-shot, memoryless
and exhaustive multi-objective optimization.  This package is that interface:

* :class:`OptimizeRequest` / :class:`Budget` — declarative request with a
  workload spec (``tpch:q03`` or ``gen:star:6:42``), metric selection,
  anytime configuration and a work budget,
* :func:`open_session` / :class:`PlannerSession` — the session streaming
  typed :class:`FrontierUpdate` events with user-steering hooks,
* :class:`OptimizationResult` — the uniform, versioned, JSON-serializable
  final payload (:mod:`repro.api.schema`),
* :data:`PLANNERS` — the one table of planners by name (``exhaustive``,
  ``iama``, ``memoryless``, ``oneshot``, ``single_objective``);
  :func:`open_planner` opens a session of one of them on live objects.

Quickstart::

    from repro.api import OptimizeRequest, open_session

    session = open_session(OptimizeRequest(workload="tpch:q03", levels=5))
    for update in session.updates():
        print(update.invocation.resolution, len(update.frontier))
    result = session.result()          # OptimizationResult
    payload = result.to_dict()         # stable versioned JSON
"""

from repro.api.planners import (
    PLANNERS,
    DriverStep,
    ExhaustiveDriver,
    IamaDriver,
    MemorylessDriver,
    OneShotDriver,
    PlannerDriver,
    SingleObjectiveDriver,
)
from repro.api.request import (
    Budget,
    OptimizeRequest,
    ResolvedRequest,
    ResolvedWorkload,
    metric_set_from_names,
    parse_generated_spec,
    resolve_request,
    resolve_workload,
)
from repro.api.schema import (
    SCHEMA_VERSION,
    FrontierUpdate,
    InvocationSummary,
    OptimizationResult,
    PlanSummary,
    SchemaError,
    cost_from_jsonable,
    cost_to_jsonable,
    frontier_summaries,
)
from repro.api.session import PlannerSession, open_planner, open_session

__all__ = [
    # request surface
    "OptimizeRequest",
    "Budget",
    "ResolvedRequest",
    "ResolvedWorkload",
    "resolve_request",
    "resolve_workload",
    "parse_generated_spec",
    "metric_set_from_names",
    # session
    "PlannerSession",
    "open_session",
    "open_planner",
    # drivers
    "PLANNERS",
    "PlannerDriver",
    "DriverStep",
    "IamaDriver",
    "MemorylessDriver",
    "OneShotDriver",
    "ExhaustiveDriver",
    "SingleObjectiveDriver",
    # schema
    "SCHEMA_VERSION",
    "SchemaError",
    "PlanSummary",
    "InvocationSummary",
    "FrontierUpdate",
    "OptimizationResult",
    "frontier_summaries",
    "cost_to_jsonable",
    "cost_from_jsonable",
]
