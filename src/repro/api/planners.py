"""The planner table: five drivers behind one invocation interface.

A *driver* adapts one optimization algorithm to the session loop of
:mod:`repro.api.session`: the session owns the Algorithm-1 state (bounds,
resolution, iteration) and calls ``invoke(bounds, resolution)``; the driver
runs one invocation of its algorithm and reports what happened.
:data:`PLANNERS` maps each of the five planner names to its driver class, and
``repro-moqo planners`` lists them with their summaries.

Section 6.1 defines both baselines as one approximation scheme run at
different precision factors, so ``memoryless``, ``oneshot`` and
``exhaustive`` are one driver over
:class:`~repro.baselines.common.ApproximateParetoDP` that differ only in
``refines``, the α of an invocation and the default of ``keep_dominated``.

``refines`` distinguishes the anytime algorithms (IAMA, memoryless), whose
sessions climb the resolution ladder, from the single-invocation algorithms,
whose sessions finish after one invocation unless the user changes bounds.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Type

from repro.baselines.common import ApproximateParetoDP
from repro.baselines.single_objective import SingleObjectiveOptimizer
from repro.core.optimizer import IncrementalOptimizer
from repro.core.resolution import ResolutionSchedule
from repro.costs.dominance import within_bounds
from repro.costs.vector import CostVector
from repro.plans.factory import PlanFactory
from repro.plans.plan import Plan
from repro.plans.query import Query


@dataclass(frozen=True)
class DriverStep:
    """What one driver invocation produced."""

    alpha: float
    duration_seconds: float
    plans: List[Plan]
    native: object


class PlannerDriver:
    """Base class for planner drivers (one per entry of :data:`PLANNERS`)."""

    #: Planner name; set by subclasses.
    name: str = ""
    #: One-line description listed by ``repro-moqo planners``.
    summary: str = ""
    #: Whether repeated invocations refine the result (anytime behaviour).
    refines: bool = False

    def __init__(
        self,
        query: Query,
        factory: PlanFactory,
        schedule: ResolutionSchedule,
    ):
        self._query = query
        self._factory = factory
        self._schedule = schedule

    # ------------------------------------------------------------------
    @property
    def query(self) -> Query:
        return self._query

    @property
    def factory(self) -> PlanFactory:
        return self._factory

    @property
    def schedule(self) -> ResolutionSchedule:
        return self._schedule

    # ------------------------------------------------------------------
    def invoke(self, bounds: CostVector, resolution: int) -> DriverStep:
        """Run one invocation at the given bounds and resolution."""
        raise NotImplementedError


class IamaDriver(PlannerDriver):
    """The paper's incremental anytime algorithm (Algorithm 2 per invocation)."""

    name = "iama"
    summary = "Incremental anytime multi-objective optimizer (the paper's IAMA)."
    refines = True

    def __init__(self, query, factory, schedule, **optimizer_options):
        super().__init__(query, factory, schedule)
        self._optimizer = IncrementalOptimizer(
            query, factory, schedule, **optimizer_options
        )

    @property
    def optimizer(self) -> IncrementalOptimizer:
        """The underlying incremental optimizer (for inspection)."""
        return self._optimizer

    def invoke(self, bounds: CostVector, resolution: int) -> DriverStep:
        report = self._optimizer.optimize(bounds, resolution)
        plans = self._optimizer.frontier(bounds, resolution)
        return DriverStep(
            alpha=report.alpha,
            duration_seconds=report.duration_seconds,
            plans=plans,
            native=report,
        )


class ParetoDPDriver(PlannerDriver):
    """From-scratch approximate Pareto DP, one run per invocation.

    Subclasses fix the precision factor of an invocation (:meth:`alpha`) and
    the default of ``keep_dominated``; nothing is carried over between
    invocations.
    """

    keep_dominated: bool = True

    def __init__(self, query, factory, schedule, keep_dominated=None, **dp_options):
        super().__init__(query, factory, schedule)
        if keep_dominated is None:
            keep_dominated = self.keep_dominated
        self._dp = ApproximateParetoDP(
            query, factory, keep_dominated=keep_dominated, **dp_options
        )

    def alpha(self, resolution: int) -> float:
        """The precision factor of an invocation at ``resolution``."""
        raise NotImplementedError

    def invoke(self, bounds: CostVector, resolution: int) -> DriverStep:
        report = self._dp.run(bounds, self.alpha(resolution))
        return DriverStep(
            alpha=report.alpha,
            duration_seconds=report.duration_seconds,
            plans=self._dp.frontier(),
            native=report,
        )


class MemorylessDriver(ParetoDPDriver):
    """The memoryless baseline: a from-scratch DP at every level's α_r."""

    name = "memoryless"
    summary = "Anytime baseline that re-optimizes from scratch at every level."
    refines = True

    def alpha(self, resolution: int) -> float:
        return self.schedule.alpha(resolution)


class OneShotDriver(ParetoDPDriver):
    """The one-shot baseline: a single invocation at the target precision."""

    name = "oneshot"
    summary = "Single from-scratch invocation at the target precision."

    def alpha(self, resolution: int) -> float:
        return self.schedule.target_precision


class ExhaustiveDriver(ParetoDPDriver):
    """Exact Pareto DP (precision factor 1); ground truth, no approximation."""

    name = "exhaustive"
    summary = "Exact Pareto dynamic programming (no approximation)."
    keep_dominated = False

    def alpha(self, resolution: int) -> float:
        return 1.0


class SingleObjectiveDriver(PlannerDriver):
    """Classical single-objective DP.

    Its frontier is the one cheapest plan, or nothing when that plan exceeds
    the session's bounds.  The plan does not depend on the bounds, so the DP
    runs once: a later invocation (after a bounds change) only filters the
    kept plan against the new bounds and reports no plans generated.
    """

    name = "single_objective"
    summary = "Classical single-metric DP (one point of the tradeoff space)."

    def __init__(
        self,
        query,
        factory,
        schedule,
        objective: Optional[str] = None,
        **dp_options,
    ):
        super().__init__(query, factory, schedule)
        metric_name = objective or factory.metric_set.names[0]
        self._optimizer = SingleObjectiveOptimizer(
            query, factory, metric_name=metric_name, **dp_options
        )
        self._plan: Optional[Plan] = None

    @property
    def optimizer(self) -> SingleObjectiveOptimizer:
        return self._optimizer

    def invoke(self, bounds: CostVector, resolution: int) -> DriverStep:
        started = time.perf_counter()
        first = self._plan is None
        if first:
            self._plan = self._optimizer.optimize()
        plans = [self._plan] if within_bounds(self._plan.cost, bounds) else []
        report = self._optimizer.report
        if not first:
            report = dataclasses.replace(
                report,
                duration_seconds=time.perf_counter() - started,
                plans_generated=0,
            )
        return DriverStep(
            alpha=1.0,
            duration_seconds=report.duration_seconds,
            plans=plans,
            native=report,
        )


#: Every planner, by name.
PLANNERS: Dict[str, Type[PlannerDriver]] = {
    driver.name: driver
    for driver in (
        ExhaustiveDriver,
        IamaDriver,
        MemorylessDriver,
        OneShotDriver,
        SingleObjectiveDriver,
    )
}


def planner(name: str) -> Type[PlannerDriver]:
    """The driver class of planner ``name``; ``KeyError`` lists the planners."""
    try:
        return PLANNERS[name]
    except KeyError:
        raise KeyError(
            f"unknown planner {name!r}; planners: {', '.join(PLANNERS)}"
        ) from None
