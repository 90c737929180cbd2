"""Plan construction: turning operators plus estimates into costed arena plans.

The :class:`PlanFactory` is the single place where scan and join plans are
built and costed.  Every optimization algorithm in this repository (IAMA, the
one-shot and memoryless baselines, the exhaustive Pareto DP and the
single-objective DP) goes through the same factory, so all algorithms operate
on exactly the same plan search space -- a prerequisite for a fair comparison,
and also how the paper's implementation works (all algorithms share the
extended Postgres plan generation).

Since the arena refactor the factory owns a per-query
:class:`~repro.plans.arena.PlanArena` and offers two construction surfaces:

* the scalar handle API (:meth:`scan_plans`, :meth:`join_plan`): one plan
  at a time, returned as its arena handle.  The single-objective baseline
  builds its plans this way, and the arena tests and micro-benchmark check
  the batched path against :meth:`join_plan`;
* the batched id API (:meth:`scan_block`, :meth:`combine_block`) used by the
  optimizer hot paths: a whole block of (left id, right id) pairs, given as
  two id columns, is joined with every operator, costed with one vectorized
  kernel call per (operator, metric) and bulk-appended to the arena -- no
  per-plan Python objects, no per-plan cost dictionaries.  The block's ids
  come back as one contiguous range.  Both surfaces produce bit-identical
  cost values, and both read each (split, operator) local join cost from
  one per-factory table, so it is computed once however often the split is
  combined.

Algorithms that regenerate their plans from scratch on every run (the DP
baselines) pass a private scratch ``arena`` so their dead plans don't pile up
in the factory's per-query arena.

The factory also counts how many plans it builds; the incremental-behaviour
tests and the ablation benchmarks use these counters to verify, e.g., that
IAMA never builds the same join twice across invocations (Lemma 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro import kernel
from repro.catalog.cardinality import CardinalityEstimator
from repro.obs import trace as obs_trace
from repro.costs.model import MultiObjectiveCostModel
from repro.costs.vector import CostVector
from repro.plans.arena import PlanArena
from repro.plans.operators import JoinOperator, OperatorRegistry
from repro.plans.plan import JoinPlan, Plan, ScanPlan


@dataclass
class PlanFactoryCounters:
    """Counters of the plan-construction work performed by a factory."""

    scan_plans_built: int = 0
    join_plans_built: int = 0

    @property
    def total_plans_built(self) -> int:
        return self.scan_plans_built + self.join_plans_built

    def snapshot(self) -> "PlanFactoryCounters":
        """Return a copy of the current counter values."""
        return PlanFactoryCounters(
            scan_plans_built=self.scan_plans_built,
            join_plans_built=self.join_plans_built,
        )


class PlanFactory:
    """Builds costed scan and join plans.

    Parameters
    ----------
    estimator:
        Cardinality estimator for the query being optimized.
    cost_model:
        Multi-objective cost model producing cost vectors.
    operators:
        Registry enumerating the applicable physical operators.
    """

    def __init__(
        self,
        estimator: CardinalityEstimator,
        cost_model: MultiObjectiveCostModel,
        operators: OperatorRegistry,
    ):
        self._estimator = estimator
        self._cost_model = cost_model
        self._operators = operators
        # Built on first use: a resolved request may never plan at all (the
        # serving tier resolves before its cache decision, and a replay or
        # warm start serves the request from cached state).
        self._arena: Optional[PlanArena] = None
        #: (left tables, right tables, operator) -> local join cost.
        self._local_costs: Dict[
            Tuple[FrozenSet[str], FrozenSet[str], JoinOperator], CostVector
        ] = {}
        self.counters = PlanFactoryCounters()

    # ------------------------------------------------------------------
    @property
    def estimator(self) -> CardinalityEstimator:
        return self._estimator

    @property
    def cost_model(self) -> MultiObjectiveCostModel:
        return self._cost_model

    @property
    def operators(self) -> OperatorRegistry:
        return self._operators

    @property
    def metric_set(self):
        """The metric set of the underlying cost model."""
        return self._cost_model.metric_set

    @property
    def arena(self) -> PlanArena:
        """The factory's per-query plan arena (built on first access)."""
        if self._arena is None:
            self._arena = PlanArena(self._cost_model.metric_set.dimensions)
        return self._arena

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def scan_plans(
        self, table: str, arena: Optional[PlanArena] = None
    ) -> List[ScanPlan]:
        """All scan plan alternatives for a base table, as handles.

        This is the ``ScanPlans(q)`` function used when Algorithm 1 seeds the
        plan sets before entering the main control loop.
        """
        target = self.arena if arena is None else arena
        return [target.plan(plan_id) for plan_id in self.scan_block(table, target)]

    def scan_block(
        self, table: str, arena: Optional[PlanArena] = None
    ) -> List[int]:
        """Ids of all costed scan alternatives for a base table."""
        target = self.arena if arena is None else arena
        rows = self._estimator.base_cardinality(table)
        pages = self._estimator.page_count(table)
        ids: List[int] = []
        for operator in self._operators.scan_operators(rows):
            cost = self._cost_model.scan_cost(
                row_count=rows,
                page_count=pages,
                sampling_rate=operator.sampling_rate,
                parallelism=operator.parallelism,
            )
            ids.append(target.allocate_scan(table, operator, cost))
            self.counters.scan_plans_built += 1
        return ids

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def join_operators(self) -> List[JoinOperator]:
        """The applicable join operator variants (Section 4.3 inner loop)."""
        return self._operators.join_operators()

    def join_plan(
        self, left: Plan, right: Plan, operator: JoinOperator
    ) -> JoinPlan:
        """Build and cost a join of two sub-plans with the given operator.

        The scalar reference path: one plan at a time, through the same cost
        formulas as :meth:`combine_block` (the arena micro-benchmark asserts
        the block path is faster *and* bit-identical).  The join is allocated
        in the operands' arena, which both must share.
        """
        arena = left.arena
        if right.arena is not arena:
            raise ValueError("join operands must be interned in the same plan arena")
        local = self._local_cost(left.tables, right.tables, operator)
        cost = self._cost_model.combine(left.cost, right.cost, local)
        self.counters.join_plans_built += 1
        interesting_order = None
        if operator.produces_order:
            interesting_order = _join_order_tag(left.tables, right.tables)
        return arena.plan(
            arena.allocate_join(
                left.plan_id, right.plan_id, operator, cost, interesting_order
            )
        )

    # ------------------------------------------------------------------
    # Batched construction (the generate → cost hot path)
    # ------------------------------------------------------------------
    def combine_block(
        self,
        left_tables: FrozenSet[str],
        right_tables: FrozenSet[str],
        left_ids: Sequence[int],
        right_ids: Sequence[int],
        operators: Sequence[JoinOperator],
        arena: Optional[PlanArena] = None,
    ) -> range:
        """Cost and intern every operator's join of a block of pairs; returns
        their ids, one contiguous range.

        ``left_ids`` / ``right_ids`` are two equally long id columns: pair
        ``i`` joins plan ``left_ids[i]`` of ``left_tables`` with plan
        ``right_ids[i]`` of ``right_tables`` (one split of one table subset),
        and each pair is joined with every one of ``operators``.  The local
        operator cost depends only on the split and the operator, so it is
        computed once per factory; each side's child cost rows are gathered
        once for the whole block and aggregated with one kernel call per
        (operator, metric) -- this is where the arena path beats per-plan
        costing.  Ids are assigned pair-major, operator-minor, which is
        exactly the order the scalar path would have created the plans in.
        """
        if not left_ids or not operators:
            return range(0)
        with obs_trace.span(
            "factory.cost_block",
            block_size=len(left_ids) * len(operators),
            backend=kernel.backend_name(),
        ):
            return self._combine_block_traced(
                left_tables, right_tables, left_ids, right_ids, operators, arena
            )

    def _combine_block_traced(
        self,
        left_tables: FrozenSet[str],
        right_tables: FrozenSet[str],
        left_ids: Sequence[int],
        right_ids: Sequence[int],
        operators: Sequence[JoinOperator],
        arena: Optional[PlanArena] = None,
    ) -> range:
        target = self.arena if arena is None else arena
        overlap = left_tables & right_tables
        if overlap:
            raise ValueError(
                f"join operands overlap on tables {sorted(overlap)}"
            )
        if len(left_ids) != len(right_ids):
            raise ValueError(
                f"{len(left_ids)} left ids but {len(right_ids)} right ids"
            )
        tables_id = target.intern_tables(left_tables | right_tables)
        order_tag = _join_order_tag(left_tables, right_tables)

        arena_columns = target.costs.columns
        left_columns = kernel.ops.take(arena_columns, [i - 1 for i in left_ids])
        right_columns = kernel.ops.take(arena_columns, [i - 1 for i in right_ids])
        operator_ids: List[int] = []
        order_ids: List[int] = []
        # Per operator: one combined cost column per metric.
        combined: List[List[Sequence[float]]] = []
        for operator in operators:
            operator_ids.append(target.intern_operator(operator))
            order_ids.append(
                target.intern_order(order_tag) if operator.produces_order else 0
            )
            combined.append(
                self._cost_model.combine_block(
                    left_columns,
                    right_columns,
                    self._local_cost(left_tables, right_tables, operator),
                )
            )
        per_pair = len(operators)
        if per_pair == 1:
            cost_columns = combined[0]
        else:
            cost_columns = [
                kernel.ops.interleave([columns[dim] for columns in combined])
                for dim in range(target.dimensions)
            ]
        count = len(left_ids) * per_pair
        self.counters.join_plans_built += count
        return target.extend_joins(
            left_ids=repeat_each(left_ids, per_pair),
            right_ids=repeat_each(right_ids, per_pair),
            operator_ids=operator_ids * len(left_ids),
            tables_ids=[tables_id] * count,
            order_ids=order_ids * len(left_ids),
            cost_columns=cost_columns,
        )

    def _local_cost(
        self,
        left_tables: FrozenSet[str],
        right_tables: FrozenSet[str],
        operator: JoinOperator,
    ) -> CostVector:
        """The local cost of joining the two table sets with ``operator``,
        computed once per factory (it depends on nothing else)."""
        key = (left_tables, right_tables, operator)
        local = self._local_costs.get(key)
        if local is None:
            local = self._local_costs[key] = self._cost_model.join_local_cost(
                left_rows=self._estimator.cardinality(left_tables),
                right_rows=self._estimator.cardinality(right_tables),
                output_rows=self._estimator.join_cardinality(
                    left_tables, right_tables
                ),
                algorithm=operator.algorithm,
                parallelism=operator.parallelism,
            )
        return local


def repeat_each(ids: Sequence[int], times: int) -> List[int]:
    """``ids`` with each id repeated ``times`` times in place: the id column of
    a pair-major block (``[1, 2]`` twice each is ``[1, 1, 2, 2]``)."""
    return list(chain.from_iterable(zip(*([ids] * times))))


def _join_order_tag(
    left_tables: FrozenSet[str], right_tables: FrozenSet[str]
) -> str:
    """Interesting-order tag for a sort-merge join of the given operands.

    We tag the output order by the smaller operand's table set, a simplified
    but deterministic stand-in for "sorted on the join column".
    """
    smaller = min((left_tables, right_tables), key=lambda ts: (len(ts), sorted(ts)))
    return "sorted:" + ",".join(sorted(smaller))
