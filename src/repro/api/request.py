"""Optimization requests: workload specs, budgets, and their resolution.

An :class:`OptimizeRequest` is the single entry ticket of the planner API: it
names a workload, an algorithm, the metric set, the anytime configuration
(levels and precision), optional initial cost bounds, and a first-class
:class:`Budget`.  Requests are pure data with a versioned JSON form, so they
can be logged, cached and replayed; :func:`resolve_request` turns one into the
live objects (query, statistics, plan factory, resolution schedule) that a
planner session runs on.

Workload specs
--------------

Workloads are addressed by string so that every surface (CLI, service,
examples) speaks the same language:

* ``tpch:q03`` / ``tpch_q03`` / ``q03`` — a TPC-H join block by name,
* ``gen:<topology>:<tables>:<seed>`` — a synthetic query from the seeded
  generator, e.g. ``gen:star:6:42`` for a six-table star query from seed 42
  (topologies: chain, star, cycle, clique),
* ``sql:<select ...|path.sql|tpch/qXX>`` — real SQL text parsed by the
  dependency-free frontend (:mod:`repro.workloads.sql`),
* ``template:<name>:<seed>`` — a seeded TPC-DS-style template instantiation
  (:mod:`repro.workloads.templates`).

The grammar itself lives in :mod:`repro.workloads.spec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.api.schema import (
    _envelope,
    check_envelope,
    cost_from_jsonable,
    cost_to_jsonable,
    decode_float,
    encode_float,
)
from repro.bench.config import (
    CONFIG_PRESETS,
    ExperimentConfig,
    FINE_PRECISION,
    MODERATE_PRECISION,
    PrecisionSetting,
    config_from_environment,
)
from repro.catalog.cardinality import CardinalityEstimator
from repro.catalog.statistics import StatisticsCatalog
from repro.core.resolution import ResolutionSchedule
from repro.costs.metrics import (
    BUFFER_SPACE,
    ENERGY,
    EXECUTION_TIME,
    IO_LOAD,
    MONETARY_FEES,
    RESERVED_CORES,
    RESULT_PRECISION_LOSS,
    SEQUENTIAL_TIME,
    MetricSet,
)
from repro.costs.model import MultiObjectiveCostModel
from repro.costs.vector import CostVector
from repro.plans.factory import PlanFactory
from repro.plans.query import Query
from repro.workloads.spec import (
    FAMILY_HELP,
    GENERATED_PREFIX,
    TOPOLOGY_NAMES,
    ResolvedWorkload,
    canonical_spec_id,
    parse_generated_spec,
    parse_template_spec,
    resolve_workload,
)

#: Metric name -> shipped metric, for requests that select metrics by name.
METRIC_POOL = {
    metric.name: metric
    for metric in (
        EXECUTION_TIME,
        SEQUENTIAL_TIME,
        MONETARY_FEES,
        ENERGY,
        RESERVED_CORES,
        IO_LOAD,
        BUFFER_SPACE,
        RESULT_PRECISION_LOSS,
    )
}

#: Precision setting name -> setting, as accepted by requests and the CLI.
PRECISION_SETTINGS: Dict[str, PrecisionSetting] = {
    MODERATE_PRECISION.name: MODERATE_PRECISION,
    FINE_PRECISION.name: FINE_PRECISION,
}


def metric_set_from_names(names: Tuple[str, ...]) -> MetricSet:
    """Build a metric set from shipped metric names (order preserved)."""
    unknown = [name for name in names if name not in METRIC_POOL]
    if unknown:
        raise ValueError(
            f"unknown metrics {unknown}; available: {sorted(METRIC_POOL)}"
        )
    return MetricSet([METRIC_POOL[name] for name in names])


# ----------------------------------------------------------------------
# Budget
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Budget:
    """How much work a session may spend before it must finish.

    All limits are optional and combine conjunctively (the first one hit ends
    the session).  The deadline is checked *between* invocations, so even a
    deadline of zero admits one invocation — an anytime optimizer always has
    something to show.

    Attributes
    ----------
    deadline_seconds:
        Wall-clock budget measured from the first invocation.
    max_invocations:
        Cap on the number of optimizer invocations.
    target_alpha:
        Stop as soon as an invocation ran at a precision factor at or below
        this value (i.e. the frontier is already this precise).
    """

    deadline_seconds: Optional[float] = None
    max_invocations: Optional[int] = None
    target_alpha: Optional[float] = None

    def __post_init__(self):
        if self.deadline_seconds is not None and self.deadline_seconds < 0:
            raise ValueError("deadline_seconds must be non-negative")
        if self.max_invocations is not None and self.max_invocations < 1:
            raise ValueError("max_invocations must be at least 1")
        if self.target_alpha is not None and self.target_alpha < 1.0:
            raise ValueError("target_alpha must be at least 1")

    @property
    def unlimited(self) -> bool:
        return (
            self.deadline_seconds is None
            and self.max_invocations is None
            and self.target_alpha is None
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            **_envelope("budget"),
            "deadline_seconds": (
                encode_float(self.deadline_seconds)
                if self.deadline_seconds is not None
                else None
            ),
            "max_invocations": self.max_invocations,
            "target_alpha": self.target_alpha,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Budget":
        check_envelope(payload, "budget")
        deadline = payload.get("deadline_seconds")
        return cls(
            deadline_seconds=(
                decode_float(deadline) if deadline is not None else None
            ),
            max_invocations=payload.get("max_invocations"),
            target_alpha=payload.get("target_alpha"),
        )


# ----------------------------------------------------------------------
# Workload specs
# ----------------------------------------------------------------------
# Spec parsing and resolution live in :mod:`repro.workloads.spec` — the single
# resolver shared by the request API, the CLI, the bench and the service.
# The imports above re-export the historical names (``resolve_workload``,
# ``parse_generated_spec``, ``ResolvedWorkload``, ...) from their new home.


# ----------------------------------------------------------------------
# The request
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OptimizeRequest:
    """One optimization request against the unified planner API.

    Attributes
    ----------
    workload:
        Workload spec string (see module docstring).
    algorithm:
        Planner name, a key of :data:`repro.api.planners.PLANNERS`.
    scale:
        Configuration preset name (``tiny``/``smoke``/``paper``); ``None``
        reads ``REPRO_BENCH_SCALE`` from the environment.
    levels:
        Number of anytime resolution levels.
    precision:
        Precision setting name (``moderate`` or ``fine``).
    metrics:
        Metric names selecting from the shipped metric pool; ``None`` uses the
        configuration's metric set (the paper's three metrics).
    bounds:
        Initial cost bounds; ``None`` means unbounded.
    budget:
        Work budget; the default is unlimited.
    objective:
        Metric minimized by the ``single_objective`` planner (defaults to the
        first metric); ignored by the multi-objective planners.
    """

    workload: str
    algorithm: str = "iama"
    scale: Optional[str] = None
    levels: int = 5
    precision: str = MODERATE_PRECISION.name
    metrics: Optional[Tuple[str, ...]] = None
    bounds: Optional[CostVector] = None
    budget: Budget = field(default_factory=Budget)
    objective: Optional[str] = None

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("levels must be at least 1")
        if self.precision not in PRECISION_SETTINGS:
            raise ValueError(
                f"unknown precision {self.precision!r}; expected one of: "
                f"{', '.join(sorted(PRECISION_SETTINGS))}"
            )
        if self.scale is not None and self.scale not in CONFIG_PRESETS:
            raise ValueError(
                f"unknown scale {self.scale!r}; expected one of: "
                f"{', '.join(sorted(CONFIG_PRESETS))}"
            )
        if self.metrics is not None:
            object.__setattr__(self, "metrics", tuple(self.metrics))
            metric_set_from_names(self.metrics)  # validate names eagerly

    def with_overrides(self, **changes) -> "OptimizeRequest":
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, object]:
        return {
            **_envelope("optimize_request"),
            "workload": self.workload,
            "algorithm": self.algorithm,
            "scale": self.scale,
            "levels": self.levels,
            "precision": self.precision,
            "metrics": list(self.metrics) if self.metrics is not None else None,
            "bounds": (
                cost_to_jsonable(self.bounds) if self.bounds is not None else None
            ),
            "budget": self.budget.to_dict(),
            "objective": self.objective,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "OptimizeRequest":
        check_envelope(payload, "optimize_request")
        metrics = payload.get("metrics")
        bounds = payload.get("bounds")
        budget = payload.get("budget")
        return cls(
            workload=payload["workload"],
            algorithm=payload.get("algorithm", "iama"),
            scale=payload.get("scale"),
            levels=int(payload.get("levels", 5)),
            precision=payload.get("precision", MODERATE_PRECISION.name),
            metrics=tuple(metrics) if metrics is not None else None,
            bounds=cost_from_jsonable(bounds) if bounds is not None else None,
            budget=Budget.from_dict(budget) if budget is not None else Budget(),
            objective=payload.get("objective"),
        )


# ----------------------------------------------------------------------
# Resolution into live objects
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResolvedRequest:
    """Everything a planner session needs, materialized from a request."""

    request: OptimizeRequest
    config: ExperimentConfig
    query: Query
    statistics: StatisticsCatalog
    metric_set: MetricSet
    factory: PlanFactory
    schedule: ResolutionSchedule
    bounds: CostVector


def resolve_request(request: OptimizeRequest) -> ResolvedRequest:
    """Materialize a request: resolve the workload and build factory/schedule."""
    config = (
        CONFIG_PRESETS[request.scale]()
        if request.scale is not None
        else config_from_environment()
    )
    workload = resolve_workload(request.workload, config)
    metric_set = (
        metric_set_from_names(request.metrics)
        if request.metrics is not None
        else config.metric_set
    )
    estimator = CardinalityEstimator(workload.statistics, workload.query.join_graph)
    cost_model = MultiObjectiveCostModel(metric_set, config.cost_model)
    factory = PlanFactory(estimator, cost_model, config.operator_registry())
    precision = PRECISION_SETTINGS[request.precision]
    schedule = ResolutionSchedule(
        levels=request.levels,
        target_precision=precision.target_precision,
        precision_step=precision.precision_step,
    )
    bounds = (
        request.bounds
        if request.bounds is not None
        else metric_set.unbounded_vector()
    )
    if len(bounds) != metric_set.dimensions:
        raise ValueError(
            f"bounds have {len(bounds)} components but the metric set has "
            f"{metric_set.dimensions}"
        )
    return ResolvedRequest(
        request=request,
        config=config,
        query=workload.query,
        statistics=workload.statistics,
        metric_set=metric_set,
        factory=factory,
        schedule=schedule,
        bounds=bounds,
    )
