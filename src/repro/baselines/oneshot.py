"""The one-shot baseline.

"The one-shot algorithm produces the result plan set with highest resolution
directly, avoiding any intermediate steps; it therefore lacks the anytime
property and takes a long time to produce the first result" (Section 6.1).

Within an invocation-series experiment the one-shot algorithm performs exactly
one optimizer invocation at the target precision, regardless of how many
resolution levels the schedule defines.
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.common import ApproximateParetoDP, DPInvocationReport
from repro.costs.vector import CostVector
from repro.core.resolution import ResolutionSchedule
from repro.plans.factory import PlanFactory
from repro.plans.plan import Plan
from repro.plans.query import Query


class OneShotOptimizer:
    """Single-invocation approximate MOQO at the target precision."""

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
        """Reports of all invocations performed so far (normally exactly one)."""
        return list(self._reports)

    # ------------------------------------------------------------------
    def optimize(self, bounds: Optional[CostVector] = None) -> DPInvocationReport:
        """Run the single optimization at the schedule's target precision."""
        if bounds is None:
            bounds = self._dp.factory.metric_set.unbounded_vector()
        report = self._dp.run(bounds, self._schedule.target_precision)
        self._reports.append(report)
        return report

    def frontier(self) -> List[Plan]:
        """Completed query plans of the most recent optimization."""
        return self._dp.frontier()
