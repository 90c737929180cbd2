"""The memoryless anytime baseline.

"The memoryless algorithm produces the same sequence of result plan sets as
the incremental anytime algorithm; it is however non-incremental and produces
each plan set from scratch" (Section 6.1).

Each invocation runs a full from-scratch DP at the precision factor of the
current resolution level; nothing is carried over between invocations.
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.common import ApproximateParetoDP, DPInvocationReport
from repro.costs.vector import CostVector
from repro.core.resolution import ResolutionSchedule
from repro.plans.factory import PlanFactory
from repro.plans.plan import Plan
from repro.plans.query import Query


class MemorylessAnytimeOptimizer:
    """Anytime MOQO that restarts from scratch at every resolution level."""

    def __init__(
        self,
        query: Query,
        factory: PlanFactory,
        schedule: ResolutionSchedule,
        allow_cross_products: bool = False,
        respect_orders: bool = True,
        keep_dominated: bool = True,
    ):
        self._schedule = schedule
        self._factory = factory
        self._dp = ApproximateParetoDP(
            query,
            factory,
            allow_cross_products=allow_cross_products,
            respect_orders=respect_orders,
            keep_dominated=keep_dominated,
        )
        self._reports: List[DPInvocationReport] = []

    # ------------------------------------------------------------------
    @property
    def query(self) -> Query:
        return self._dp.query

    @property
    def schedule(self) -> ResolutionSchedule:
        return self._schedule

    @property
    def reports(self) -> List[DPInvocationReport]:
        return list(self._reports)

    # ------------------------------------------------------------------
    def step(
        self, resolution: int, bounds: Optional[CostVector] = None
    ) -> DPInvocationReport:
        """Run one from-scratch invocation at the given resolution."""
        if bounds is None:
            bounds = self._factory.metric_set.unbounded_vector()
        report = self._dp.run(bounds, self._schedule.alpha(resolution))
        self._reports.append(report)
        return report

    def frontier(self) -> List[Plan]:
        """Completed query plans of the most recent invocation."""
        return self._dp.frontier()
