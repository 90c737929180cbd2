"""Shared machinery of the non-incremental baselines.

:class:`ApproximateParetoDP` is a bushy dynamic-programming optimizer with
approximate pruning at a fixed precision factor ``alpha``, in the style of the
approximation schemes of the authors' prior work (SIGMOD 2014) which the paper
uses as baselines.  Differences to IAMA's incremental optimizer:

* it has no memory: every run starts from scratch and regenerates every plan,
* plans exceeding the cost bounds are dropped instead of being parked as
  candidates.

The plan search space (operators, cost model, cardinalities, cross-product
policy, interesting-order handling) is identical to IAMA's because both go
through the same :class:`~repro.plans.factory.PlanFactory`.  Each run owns a
private scratch :class:`~repro.plans.arena.PlanArena`: the DP regenerates its
whole plan population per invocation, so pinning those plans into the
factory's per-query arena would leak one full search space per run.  Each
split's sub-plan pairs are enumerated as two id columns and joined with every
operator and costed through the same batched
:meth:`~repro.plans.factory.PlanFactory.combine_block` kernel path as the
incremental optimizer, then inserted in generation order -- the population is
identical to the plan-at-a-time formulation.

By default the DP uses the *same pruning semantics as IAMA* -- a plan is kept
unless an existing plan alpha-approximates it, and plans that later become
dominated are **not** discarded.  The paper states that "the memoryless
algorithm produces the same sequence of result plan sets as the incremental
anytime algorithm" (Section 6.1); sharing the pruning semantics keeps the plan
population identical across all three algorithms so that the measured
differences isolate incrementality and the anytime refinement, which is the
paper's subject.  The approximation schemes of the prior work additionally keep
their plan sets "as small as possible" (Section 4.2); that behaviour is
available through ``keep_dominated=False`` and is quantified by the
keep-dominated ablation benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.costs.matrix import CostBlock
from repro.costs.vector import CostVector
from repro.plans.arena import PlanArena
from repro.plans.factory import PlanFactory, repeat_each
from repro.plans.plan import Plan
from repro.plans.query import Query, plan_order

TableSet = FrozenSet[str]

#: Plan ids of one table set plus the cost matrix the kernel filters.  The
#: same batched dominance kernel backs IAMA's plan index
#: (:mod:`repro.core.index`), so baseline-vs-IAMA comparisons measure the
#: algorithms, not their loops.
_PlanBlock = CostBlock[int]


@dataclass(frozen=True)
class DPInvocationReport:
    """What a single from-scratch DP run did."""

    alpha: float
    bounds: CostVector
    duration_seconds: float
    plans_generated: int
    plans_kept: int
    frontier_size: int


class ApproximateParetoDP:
    """From-scratch multi-objective DP with approximate pruning.

    Parameters
    ----------
    query:
        The query to optimize.
    factory:
        Plan factory; shared with other algorithms for a fair comparison.
    allow_cross_products, respect_orders:
        Same semantics as for the incremental optimizer.
    keep_dominated:
        When true (default), newly dominated plans are kept, matching IAMA's
        pruning semantics; when false, a newly inserted plan evicts the plans
        it strictly dominates (the minimal-set behaviour of the prior
        approximation schemes).
    """

    def __init__(
        self,
        query: Query,
        factory: PlanFactory,
        allow_cross_products: bool = False,
        respect_orders: bool = True,
        keep_dominated: bool = True,
    ):
        self._query = query
        self._factory = factory
        self._respect_orders = respect_orders
        self._keep_dominated = keep_dominated
        self._plan_order = plan_order(query, allow_cross_products)
        self._frontier: List[Plan] = []

    # ------------------------------------------------------------------
    @property
    def query(self) -> Query:
        return self._query

    @property
    def factory(self) -> PlanFactory:
        return self._factory

    # ------------------------------------------------------------------
    def run(self, bounds: CostVector, alpha: float) -> DPInvocationReport:
        """Optimize from scratch at precision factor ``alpha`` under ``bounds``.

        :meth:`frontier` returns the completed plans of the most recent run.
        """
        if alpha < 1.0:
            raise ValueError("the precision factor alpha must be >= 1")
        started = time.perf_counter()
        plans_generated = 0
        dims = self._factory.metric_set.dimensions
        if len(bounds) != dims:
            raise ValueError(
                f"bounds have {len(bounds)} components but the cost model uses "
                f"{dims} metrics"
            )
        arena = PlanArena(dims)
        bounds_row = tuple(bounds)
        blocks: Dict[TableSet, _PlanBlock] = {}

        # Base case: scan plans per table.
        for table in sorted(self._query.tables):
            key = frozenset({table})
            blocks[key] = _PlanBlock(dims)
            for plan_id in self._factory.scan_block(table, arena):
                plans_generated += 1
                self._insert(blocks[key], arena, plan_id, bounds_row, alpha)

        # Recursive case: joins over subsets of increasing cardinality,
        # enumerated as id pairs and costed in one block per split.
        join_operators = self._factory.join_operators()
        for subset, splits in self._plan_order:
            target = blocks.setdefault(subset, _PlanBlock(dims))
            for left_tables, right_tables in splits:
                left_block = blocks.get(left_tables)
                right_block = blocks.get(right_tables)
                if left_block is None or right_block is None:
                    continue
                left_ids = left_block.live_items()
                right_ids = right_block.live_items()
                if not left_ids or not right_ids:
                    continue
                plan_ids = self._factory.combine_block(
                    left_tables,
                    right_tables,
                    repeat_each(left_ids, len(right_ids)),
                    right_ids * len(left_ids),
                    join_operators,
                    arena,
                )
                plans_generated += len(plan_ids)
                for plan_id in plan_ids:
                    self._insert(target, arena, plan_id, bounds_row, alpha)

        duration = time.perf_counter() - started
        final = blocks.get(self._query.tables)
        self._frontier = arena.plans(final.live_items()) if final is not None else []
        return DPInvocationReport(
            alpha=alpha,
            bounds=bounds,
            duration_seconds=duration,
            plans_generated=plans_generated,
            plans_kept=sum(len(block) for block in blocks.values()),
            frontier_size=len(self._frontier),
        )

    def frontier(self) -> List[Plan]:
        """Completed query plans of the most recent run."""
        return list(self._frontier)

    # ------------------------------------------------------------------
    def _insert(
        self,
        block: _PlanBlock,
        arena: PlanArena,
        plan_id: int,
        bounds_row: Tuple[float, ...],
        alpha: float,
    ) -> bool:
        """Insert with approximate pruning; optionally evict dominated incumbents.

        The existence check ("some incumbent dominates the scaled cost") and
        the eviction scan ("incumbents the new plan dominates") are single
        batched kernel calls over the block's cost matrix; the interesting-
        order compatibility is verified per surviving hit only, as an
        interned-order-id comparison.
        """
        cost_row = arena.cost_row(plan_id)
        for value, bound in zip(cost_row, bounds_row):
            if value > bound:
                return False
        order_id = arena.order_id_of(plan_id)
        scaled = tuple(value * alpha for value in cost_row)
        for slot in block.matrix.dominated_slots(scaled):
            if self._respect_orders and order_id != 0:
                # Only plans producing the same tuple order may approximate
                # this one.
                if arena.order_id_of(block.items[slot]) != order_id:
                    continue
            return False
        if self._keep_dominated:
            block.append(cost_row, plan_id)
            return True
        for slot in block.matrix.dominated_by_slots(cost_row):
            existing_order = arena.order_id_of(block.items[slot])
            if self._respect_orders and existing_order != 0:
                if order_id != existing_order:
                    continue
            block.kill(slot)
        block.compact_if_needed()
        block.append(cost_row, plan_id)
        return True
