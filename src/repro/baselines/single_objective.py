"""Classical single-objective dynamic programming (Selinger-style, bushy).

Classical query optimization "considers only one cost metric for query plans
and aims at finding a plan with minimal cost"; single-objective algorithms are
not applicable to MOQO in the general case (Section 2), but the single-
objective optimizer is still useful here:

* the examples use it to show that optimizing for one metric in isolation
  produces plans that are far from optimal on the other metrics,
* Theorem 5 states that IAMA's amortized per-invocation complexity matches the
  complexity of single-objective DP with bushy plans, which the ablation
  benchmarks quantify empirically.

The optimizer keeps, per table set, the cheapest plan for each interesting
order (plus the cheapest unordered plan), the classical Selinger rule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.costs.vector import CostVector
from repro.plans.arena import PlanArena
from repro.plans.factory import PlanFactory
from repro.plans.plan import Plan
from repro.plans.query import Query, plan_order

TableSet = FrozenSet[str]


@dataclass(frozen=True)
class SingleObjectiveReport:
    """Result of one single-objective optimization run."""

    metric_name: str
    duration_seconds: float
    plans_generated: int
    best_cost: Optional[float]


class SingleObjectiveOptimizer:
    """Bushy DP minimizing a single metric of the multi-objective cost model."""

    def __init__(
        self,
        query: Query,
        factory: PlanFactory,
        metric_name: str = "execution_time",
        allow_cross_products: bool = False,
    ):
        self._query = query
        self._factory = factory
        self._metric_index = factory.metric_set.index_of(metric_name)
        self._metric_name = metric_name
        self._allow_cross_products = allow_cross_products
        self._best: Dict[TableSet, Dict[Optional[str], Plan]] = {}
        self._report: Optional[SingleObjectiveReport] = None

    # ------------------------------------------------------------------
    @property
    def query(self) -> Query:
        return self._query

    @property
    def metric_name(self) -> str:
        return self._metric_name

    @property
    def report(self) -> Optional[SingleObjectiveReport]:
        return self._report

    # ------------------------------------------------------------------
    def optimize(self) -> Plan:
        """Return a plan minimizing the configured metric for the whole query."""
        started = time.perf_counter()
        plans_generated = 0
        best: Dict[TableSet, Dict[Optional[str], Plan]] = {}
        # From-scratch DP: regenerated plans live in a per-run scratch arena
        # (joins follow their operands' arena automatically), so repeated runs
        # don't pile dead plans into the factory's per-query arena.
        arena = PlanArena(self._factory.metric_set.dimensions)

        for table in sorted(self._query.tables):
            key = frozenset({table})
            best[key] = {}
            for plan in self._factory.scan_plans(table, arena=arena):
                plans_generated += 1
                self._keep_if_better(best[key], plan)

        join_operators = self._factory.join_operators()
        for subset, splits in plan_order(self._query, self._allow_cross_products):
            target = best.setdefault(subset, {})
            for left_tables, right_tables in splits:
                for left in best.get(left_tables, {}).values():
                    for right in best.get(right_tables, {}).values():
                        for operator in join_operators:
                            plan = self._factory.join_plan(left, right, operator)
                            plans_generated += 1
                            self._keep_if_better(target, plan)

        self._best = best
        final = best.get(self._query.tables, {})
        if not final:
            raise RuntimeError(
                f"no plan found for query {self._query.name!r}; "
                "the join graph may be disconnected (set allow_cross_products=True)"
            )
        winner = min(final.values(), key=lambda p: p.cost[self._metric_index])
        self._report = SingleObjectiveReport(
            metric_name=self._metric_name,
            duration_seconds=time.perf_counter() - started,
            plans_generated=plans_generated,
            best_cost=winner.cost[self._metric_index],
        )
        return winner

    def best_plan(self, tables: Optional[TableSet] = None) -> Plan:
        """The cheapest known plan for the given table set (defaults to the query)."""
        key = frozenset(tables) if tables is not None else self._query.tables
        candidates = self._best.get(key, {})
        if not candidates:
            raise KeyError(f"no plan stored for table set {sorted(key)}")
        return min(candidates.values(), key=lambda p: p.cost[self._metric_index])

    # ------------------------------------------------------------------
    def _keep_if_better(self, slot: Dict[Optional[str], Plan], plan: Plan) -> None:
        """Keep the cheapest plan per interesting order."""
        order = plan.interesting_order
        incumbent = slot.get(order)
        if (
            incumbent is None
            or plan.cost[self._metric_index] < incumbent.cost[self._metric_index]
        ):
            slot[order] = plan
