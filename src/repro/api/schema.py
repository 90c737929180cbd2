"""Versioned JSON schema for every payload of the unified planner API.

The paper's interface contract is *one* surface — invoke, visualize the
frontier, steer, invoke again — regardless of which optimization algorithm
serves the session.  This module pins down the data half of that contract:
every value that crosses the API boundary (plan summaries, cost vectors,
invocation reports, frontier updates, final results) has a stable, versioned
``to_dict``/``from_dict`` JSON form, so that results flow unchanged through
the frontier cache's persistent tier
(:class:`~repro.service.frontier_cache.JsonStore`), the exporters
(:mod:`repro.bench.export`) and the CLI ``--json`` output, and so that a
payload written today can be validated and re-read by a future version.

Conventions
-----------

* Every top-level payload carries ``schema_version`` (currently
  ``SCHEMA_VERSION = 1``) and a ``kind`` tag; ``from_dict`` rejects unknown
  versions and mismatched kinds instead of guessing.
* Cost vectors serialize as lists of floats with ``+inf`` encoded as the
  string ``"inf"`` (JSON has no portable infinity literal).
* Plans serialize as *summaries* — cost, tables, operator, rendered tree —
  not as live :class:`~repro.plans.plan.Plan` objects: plan ids are
  process-unique, so a deserialized payload compares equal by value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.costs.vector import CostVector
from repro.plans.plan import Plan

#: Bump when any payload layout changes incompatibly.
SCHEMA_VERSION = 1

#: JSON encoding of ``+inf`` cost components (JSON has no Infinity literal).
#: Cost vectors are non-negative by construction, but the encoder is
#: sign-aware anyway so a rogue ``-inf`` can never silently flip to ``+inf``.
INF_TOKEN = "inf"
NEG_INF_TOKEN = "-inf"


class SchemaError(ValueError):
    """A payload does not match the versioned schema."""


# ----------------------------------------------------------------------
# Scalar and cost-vector encoding
# ----------------------------------------------------------------------
def encode_float(value: float) -> object:
    """A JSON-safe representation of one cost/bound component."""
    if math.isinf(value):
        return INF_TOKEN if value > 0 else NEG_INF_TOKEN
    return float(value)


def decode_float(value: object) -> float:
    """Inverse of :func:`encode_float`."""
    if value == INF_TOKEN:
        return math.inf
    if value == NEG_INF_TOKEN:
        return -math.inf
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise SchemaError(f"expected a number or {INF_TOKEN!r}, got {value!r}")


def cost_to_jsonable(cost: CostVector) -> List[object]:
    """Serialize a cost vector as a JSON list (``+inf`` -> ``"inf"``)."""
    return [encode_float(v) for v in cost]


def cost_from_jsonable(values: Sequence[object]) -> CostVector:
    """Inverse of :func:`cost_to_jsonable`."""
    if not isinstance(values, (list, tuple)) or not values:
        raise SchemaError(f"expected a non-empty list of components, got {values!r}")
    return CostVector(decode_float(v) for v in values)


def check_envelope(payload: Mapping, kind: str) -> None:
    """Validate the ``schema_version``/``kind`` envelope of a payload."""
    if not isinstance(payload, Mapping):
        raise SchemaError(f"expected a mapping, got {type(payload).__name__}")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema_version {version!r}; this build reads "
            f"version {SCHEMA_VERSION}"
        )
    actual = payload.get("kind")
    if actual != kind:
        raise SchemaError(f"expected kind {kind!r}, got {actual!r}")


def _envelope(kind: str) -> Dict[str, object]:
    return {"schema_version": SCHEMA_VERSION, "kind": kind}


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanSummary:
    """Value-typed summary of one query plan (one visualized cost tradeoff)."""

    tables: Tuple[str, ...]
    cost: CostVector
    operator: str
    render: str
    interesting_order: Optional[str] = None
    depth: int = 1

    @classmethod
    def from_plan(cls, plan: Plan) -> "PlanSummary":
        return cls(
            tables=tuple(sorted(plan.tables)),
            cost=plan.cost,
            operator=plan.operator.label,
            render=plan.render(),
            interesting_order=plan.interesting_order,
            depth=plan.depth(),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            **_envelope("plan"),
            "tables": list(self.tables),
            "cost": cost_to_jsonable(self.cost),
            "operator": self.operator,
            "render": self.render,
            "interesting_order": self.interesting_order,
            "depth": self.depth,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "PlanSummary":
        check_envelope(payload, "plan")
        return cls(
            tables=tuple(payload["tables"]),
            cost=cost_from_jsonable(payload["cost"]),
            operator=payload["operator"],
            render=payload["render"],
            interesting_order=payload.get("interesting_order"),
            depth=int(payload.get("depth", 1)),
        )


def frontier_summaries(
    plans: Sequence[Plan], shown: Optional[Dict[Plan, PlanSummary]] = None
) -> Tuple[PlanSummary, ...]:
    """Plan summaries of a visualized frontier, in retrieval order.

    ``shown`` maps plan handles to the summaries built for them earlier: a
    plan found there is not summarized again, and each plan summarized here
    is added to it.
    """
    if shown is None:
        shown = {}
    for plan in plans:
        if plan not in shown:
            shown[plan] = PlanSummary.from_plan(plan)
    return tuple(shown[plan] for plan in plans)


# ----------------------------------------------------------------------
# Invocation reports
# ----------------------------------------------------------------------
def _scalar_details(report: object) -> Dict[str, object]:
    """JSON-scalar fields of a native report dataclass, in field order."""
    import dataclasses

    details: Dict[str, object] = {}
    if dataclasses.is_dataclass(report) and not isinstance(report, type):
        for f in dataclasses.fields(report):
            value = getattr(report, f.name)
            if isinstance(value, bool) or value is None:
                details[f.name] = value
            elif isinstance(value, (int, str)):
                details[f.name] = value
            elif isinstance(value, float):
                details[f.name] = encode_float(value)
    return details


@dataclass(frozen=True)
class InvocationSummary:
    """What one optimizer invocation did, in algorithm-independent terms.

    ``details`` carries the algorithm-specific counters of the native report
    (e.g. IAMA's ``pairs_enumerated`` or the DP's ``plans_kept``) as JSON
    scalars; the uniform fields are enough to drive any consumer.
    """

    index: int
    resolution: int
    alpha: float
    bounds: CostVector
    duration_seconds: float
    frontier_size: int
    details: Mapping[str, object] = field(default_factory=dict)

    @classmethod
    def from_report(
        cls,
        report: object,
        index: int,
        resolution: int,
        alpha: float,
        bounds: CostVector,
        duration_seconds: float,
        frontier_size: int,
    ) -> "InvocationSummary":
        return cls(
            index=index,
            resolution=resolution,
            alpha=alpha,
            bounds=bounds,
            duration_seconds=duration_seconds,
            frontier_size=frontier_size,
            details=_scalar_details(report),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            **_envelope("invocation"),
            "index": self.index,
            "resolution": self.resolution,
            "alpha": self.alpha,
            "bounds": cost_to_jsonable(self.bounds),
            "duration_seconds": self.duration_seconds,
            "frontier_size": self.frontier_size,
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "InvocationSummary":
        check_envelope(payload, "invocation")
        return cls(
            index=int(payload["index"]),
            resolution=int(payload["resolution"]),
            alpha=float(payload["alpha"]),
            bounds=cost_from_jsonable(payload["bounds"]),
            duration_seconds=float(payload["duration_seconds"]),
            frontier_size=int(payload["frontier_size"]),
            details=dict(payload.get("details", {})),
        )


# ----------------------------------------------------------------------
# Frontier updates (the streamed session events)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FrontierUpdate:
    """One streamed session event: invocation report + frontier snapshot.

    ``plans`` holds the live plan objects of the visualized frontier so that
    steering hooks (plan choosers, bound heuristics) can act on them; it is
    excluded from equality and from the JSON form, which carry only the
    value-typed summaries.  A session's history keeps them only on its
    latest entry.
    """

    algorithm: str
    invocation: InvocationSummary
    frontier: Tuple[PlanSummary, ...]
    elapsed_seconds: float
    plans: Tuple[Plan, ...] = field(default=(), compare=False, repr=False)

    @property
    def frontier_costs(self) -> List[CostVector]:
        return [summary.cost for summary in self.frontier]

    def to_dict(self) -> Dict[str, object]:
        return {
            **_envelope("frontier_update"),
            "algorithm": self.algorithm,
            "invocation": self.invocation.to_dict(),
            "frontier": [summary.to_dict() for summary in self.frontier],
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FrontierUpdate":
        check_envelope(payload, "frontier_update")
        return cls(
            algorithm=payload["algorithm"],
            invocation=InvocationSummary.from_dict(payload["invocation"]),
            frontier=tuple(
                PlanSummary.from_dict(entry) for entry in payload["frontier"]
            ),
            elapsed_seconds=float(payload["elapsed_seconds"]),
        )


# ----------------------------------------------------------------------
# The uniform final result
# ----------------------------------------------------------------------
#: ``finish_reason`` values of a completed session.
FINISH_EXHAUSTED = "exhausted"          # refinement complete (sweep finished)
FINISH_SELECTED = "selected"            # the user selected a plan
FINISH_DEADLINE = "deadline"            # wall-clock budget spent
FINISH_INVOCATION_CAP = "invocation_cap"  # invocation budget spent
FINISH_TARGET_ALPHA = "target_alpha"    # requested precision reached
FINISH_IN_PROGRESS = "in_progress"      # session still open

FINISH_REASONS = (
    FINISH_EXHAUSTED,
    FINISH_SELECTED,
    FINISH_DEADLINE,
    FINISH_INVOCATION_CAP,
    FINISH_TARGET_ALPHA,
    FINISH_IN_PROGRESS,
)


@dataclass(frozen=True)
class OptimizationResult:
    """The uniform final payload of every planner session."""

    algorithm: str
    query_name: str
    table_count: int
    metric_names: Tuple[str, ...]
    invocations: Tuple[InvocationSummary, ...]
    frontier: Tuple[PlanSummary, ...]
    finish_reason: str
    total_seconds: float
    plans_generated: int
    selected_plan: Optional[PlanSummary] = None

    @property
    def frontier_size(self) -> int:
        return len(self.frontier)

    @property
    def durations_seconds(self) -> List[float]:
        return [invocation.duration_seconds for invocation in self.invocations]

    def to_dict(self) -> Dict[str, object]:
        return {
            **_envelope("optimization_result"),
            "algorithm": self.algorithm,
            "query": {"name": self.query_name, "table_count": self.table_count},
            "metrics": list(self.metric_names),
            "finish_reason": self.finish_reason,
            "total_seconds": self.total_seconds,
            "plans_generated": self.plans_generated,
            "invocations": [inv.to_dict() for inv in self.invocations],
            "frontier": [summary.to_dict() for summary in self.frontier],
            "selected_plan": (
                self.selected_plan.to_dict() if self.selected_plan else None
            ),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "OptimizationResult":
        check_envelope(payload, "optimization_result")
        reason = payload["finish_reason"]
        if reason not in FINISH_REASONS:
            raise SchemaError(
                f"unknown finish_reason {reason!r}; expected one of {FINISH_REASONS}"
            )
        selected = payload.get("selected_plan")
        return cls(
            algorithm=payload["algorithm"],
            query_name=payload["query"]["name"],
            table_count=int(payload["query"]["table_count"]),
            metric_names=tuple(payload["metrics"]),
            invocations=tuple(
                InvocationSummary.from_dict(entry)
                for entry in payload["invocations"]
            ),
            frontier=tuple(
                PlanSummary.from_dict(entry) for entry in payload["frontier"]
            ),
            finish_reason=reason,
            total_seconds=float(payload["total_seconds"]),
            plans_generated=int(payload["plans_generated"]),
            selected_plan=(
                PlanSummary.from_dict(selected) if selected is not None else None
            ),
        )
