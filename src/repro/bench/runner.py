"""Per-query, per-algorithm invocation series.

The paper's experiments compare the three algorithms "according to average and
maximal time of a single optimizer invocation within a series of invocations
for the same query" in a scenario without user interaction where "the cost
bounds are initially fixed to infinity" (Section 6.1).  :func:`run_series`
reproduces exactly that protocol for one query:

* **IAMA** performs one incremental invocation per resolution level,
* **memoryless** performs one from-scratch invocation per resolution level,
* **one-shot** performs a single from-scratch invocation at the target
  precision.

Every algorithm runs through the unified planner API
(:mod:`repro.api`): :func:`~repro.api.session.open_planner` opens the planner
named by the :class:`AlgorithmName` value, and the budget-free session's
no-interaction drain is exactly the invocation-series protocol.
:class:`AlgorithmName` is the bench-level enumeration of the paper's
comparison set; its values are planner names and its labels name the
algorithms in experiment rows.

Every algorithm gets its own :class:`~repro.plans.factory.PlanFactory` instance
(same estimator construction, same operators, same cost model) so that plan
generation counters do not leak between algorithms.
"""

from __future__ import annotations

import enum
import gc
from dataclasses import dataclass
from typing import List

from repro.bench.config import ExperimentConfig, PrecisionSetting
from repro.catalog.cardinality import CardinalityEstimator
from repro.core.resolution import ResolutionSchedule
from repro.costs.model import MultiObjectiveCostModel
from repro.plans.factory import PlanFactory
from repro.plans.query import Query
from repro.workloads.tpch import tpch_statistics


def _open_planner(name: str, query: Query, factory, schedule, **options):
    """:func:`repro.api.session.open_planner`, imported lazily.

    ``repro.api.request`` imports :mod:`repro.bench.config`, so a module-level
    import here would close an import cycle through the package __init__.
    """
    from repro.api.session import open_planner

    return open_planner(name, query, factory, schedule, **options)


class AlgorithmName(enum.Enum):
    """The algorithms compared in the paper's evaluation, by planner name."""

    INCREMENTAL_ANYTIME = "iama"
    MEMORYLESS = "memoryless"
    ONE_SHOT = "oneshot"

    @property
    def label(self) -> str:
        return {
            AlgorithmName.INCREMENTAL_ANYTIME: "Incremental anytime",
            AlgorithmName.MEMORYLESS: "Memoryless",
            AlgorithmName.ONE_SHOT: "One-shot",
        }[self]


@dataclass(frozen=True)
class InvocationSeries:
    """Per-invocation times of one algorithm on one query."""

    algorithm: AlgorithmName
    query_name: str
    table_count: int
    resolution_levels: int
    durations_seconds: List[float]
    plans_generated: int
    frontier_size: int

    @property
    def average_seconds(self) -> float:
        return sum(self.durations_seconds) / len(self.durations_seconds)

    @property
    def maximum_seconds(self) -> float:
        return max(self.durations_seconds)

    @property
    def total_seconds(self) -> float:
        return sum(self.durations_seconds)


# ----------------------------------------------------------------------
# Factory construction
# ----------------------------------------------------------------------
def build_factory(
    query: Query,
    config: ExperimentConfig,
    statistics=None,
) -> PlanFactory:
    """Build a fresh plan factory for one algorithm run on one query.

    ``statistics`` defaults to the TPC-H statistics catalog at the configured
    scale factor; synthetic workloads pass their own catalog.
    """
    if statistics is None:
        statistics = tpch_statistics(config.tpch_scale_factor)
    estimator = CardinalityEstimator(statistics, query.join_graph)
    cost_model = MultiObjectiveCostModel(config.metric_set, config.cost_model)
    return PlanFactory(estimator, cost_model, config.operator_registry())


def build_schedule(
    levels: int, precision: PrecisionSetting
) -> ResolutionSchedule:
    """Resolution schedule for one (levels, precision) combination."""
    return ResolutionSchedule(
        levels=levels,
        target_precision=precision.target_precision,
        precision_step=precision.precision_step,
    )


# ----------------------------------------------------------------------
# Series execution
# ----------------------------------------------------------------------
def run_series(
    algorithm: AlgorithmName,
    query: Query,
    config: ExperimentConfig,
    levels: int,
    precision: PrecisionSetting,
    statistics=None,
) -> InvocationSeries:
    """Run one algorithm's full invocation series on one query and time it.

    The series is a planner session drained without user interaction: the
    anytime algorithms climb the full resolution ladder (one invocation per
    level), the single-invocation algorithms finish after one invocation.
    The cyclic garbage collector is paused while the session runs, as
    :mod:`timeit` does, so a collection triggered by earlier work does not
    land inside a timed invocation.
    """
    factory = build_factory(query, config, statistics=statistics)
    schedule = build_schedule(levels, precision)
    session = _open_planner(algorithm.value, query, factory, schedule)
    collecting = gc.isenabled()
    gc.disable()
    try:
        result = session.run()
    finally:
        if collecting:
            gc.enable()
    return InvocationSeries(
        algorithm=algorithm,
        query_name=query.name,
        table_count=query.table_count,
        resolution_levels=levels,
        durations_seconds=result.durations_seconds,
        plans_generated=result.plans_generated,
        frontier_size=(
            result.invocations[-1].frontier_size if result.invocations else 0
        ),
    )
