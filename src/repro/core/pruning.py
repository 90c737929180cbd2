"""Procedure ``Prune`` (Algorithm 3).

Given a new plan ``p`` for table set ``q``, the current cost bounds ``b``, the
current resolution ``r`` and its precision factor ``alpha_r``, pruning decides
which of three things happens:

1. some result plan registered at resolution ``<= r`` and within the bounds
   already *approximates* ``p`` (its cost dominates ``alpha_r * c(p)``): ``p``
   is kept as a **candidate for resolution r + 1** -- it might become relevant
   once the resolution is refined -- or discarded if the maximal resolution is
   already reached;
2. otherwise, if ``p``'s cost exceeds the bounds, ``p`` is kept as a
   **candidate for the current resolution** -- it might become relevant once
   the user relaxes the bounds;
3. otherwise ``p`` is **inserted into the result set**, registered at the
   current resolution.

Two deliberate design decisions from Section 4.2 are preserved:

* the new plan is only compared against result plans registered at the current
  resolution *or lower* (never higher), keeping the number of comparisons
  proportional to the result set size at the current resolution;
* result plans that are dominated by the new plan are **not** discarded,
  because they may already serve as sub-plans of previously combined plans.

Following Section 4.3, the cost comparison is restricted to plans producing a
compatible interesting tuple order: a result plan can only approximate the new
plan when it provides at least the same ordering guarantee.

Since the arena refactor the decision logic operates on arena primitives (plan
ids, raw cost rows, interned order ids); :func:`prune_all_ids` is the
optimizer's batched entry point (one kernel gather + scale per block), while
:func:`prune` keeps the object-level API over the same core, so both paths
produce identical outcome sequences by construction.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro import flags, kernel
from repro.costs.vector import CostVector
from repro.core.index import PlanIndex
from repro.obs import trace as obs_trace
from repro.plans.arena import PlanArena
from repro.plans.plan import Plan


class PruneOutcome(enum.Enum):
    """What happened to a plan handed to :func:`prune`."""

    #: The plan was inserted into the result plan set.
    INSERTED = "inserted"
    #: An existing result plan approximates it; kept as candidate for ``r + 1``.
    DEFERRED_TO_HIGHER_RESOLUTION = "deferred"
    #: Its cost exceeds the bounds; kept as candidate for the current resolution.
    OUT_OF_BOUNDS = "out_of_bounds"
    #: Approximated at the maximal resolution; the plan is dropped for good.
    DISCARDED = "discarded"

    @property
    def became_result(self) -> bool:
        return self is PruneOutcome.INSERTED

    @property
    def became_candidate(self) -> bool:
        return self in (
            PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION,
            PruneOutcome.OUT_OF_BOUNDS,
        )


def order_covers(provider: Plan, consumer: Plan) -> bool:
    """Whether ``provider`` offers at least the ordering guarantee of ``consumer``.

    A plan without an interesting order is covered by any plan; a plan with an
    interesting order is only covered by plans producing the same order.  The
    pruning comparison uses this predicate so that plans producing a useful
    tuple order are never pruned by cheaper unordered plans (the multi-objective
    generalization of Selinger's interesting-order rule, Section 4.3).
    """
    if consumer.interesting_order is None:
        return True
    return provider.interesting_order == consumer.interesting_order


def _row_leq(row: Sequence[float], bounds: Sequence[float]) -> bool:
    """Component-wise ``row <= bounds`` (dominance on raw cost rows)."""
    for value, bound in zip(row, bounds):
        if value > bound:
            return False
    return True


def prune(
    result_index: PlanIndex,
    candidate_index: PlanIndex,
    bounds: CostVector,
    resolution: int,
    alpha: float,
    max_resolution: int,
    plan: Plan,
    respect_orders: bool = True,
    witnesses: Optional[Dict[int, Plan]] = None,
) -> PruneOutcome:
    """Apply procedure ``Prune`` to a single plan.

    Parameters
    ----------
    result_index, candidate_index:
        The result plan set ``Res^q`` and candidate plan set ``Cand^q`` of the
        plan's table set.
    bounds:
        Current cost bounds ``b``.
    resolution:
        Current resolution level ``r``.
    alpha:
        The precision factor ``alpha_r`` for the current resolution.
    max_resolution:
        ``r_M``; plans approximated at the maximal resolution are discarded.
    plan:
        The new plan ``p`` to be pruned.
    respect_orders:
        When true (default), only result plans with a compatible interesting
        order may approximate the new plan.
    witnesses:
        Optional cache mapping a plan id to the result plan that approximated
        it in an earlier pruning (its *witness*).  When a deferred candidate is
        re-pruned at the next resolution level, the witness usually still
        approximates it, so the full existence check is skipped.  The cache is
        purely an optimization: its hits satisfy exactly the condition of
        Algorithm 3 line 7.

    Returns
    -------
    PruneOutcome
        What happened to the plan.
    """
    if alpha < 1.0:
        raise ValueError("the precision factor alpha_r must be >= 1")
    arena = plan.arena
    cost_row = arena.cost_row(plan.plan_id)
    scaled_row = tuple(value * alpha for value in cost_row)
    return _prune_core(
        result_index,
        candidate_index,
        tuple(bounds),
        resolution,
        max_resolution,
        arena,
        plan.plan_id,
        cost_row,
        scaled_row,
        respect_orders,
        witnesses,
    )


def prune_all_ids(
    result_index: PlanIndex,
    candidate_index: PlanIndex,
    bounds: CostVector,
    resolution: int,
    alpha: float,
    max_resolution: int,
    arena: PlanArena,
    plan_ids: Sequence[int],
    respect_orders: bool = True,
    witnesses: Optional[Dict[int, Plan]] = None,
) -> List[PruneOutcome]:
    """Apply procedure ``Prune`` to a block of arena plan ids.

    The batch entry point of the optimizer (seeding, candidate
    reconsideration and fresh-plan generation in :mod:`repro.core.optimizer`):
    the block's cost rows are gathered from the arena matrix and scaled by
    ``alpha_r`` with one kernel call each, then every plan's witness search
    runs through the batched kernel of the result index.  Outcomes are
    identical to pruning each plan the moment it was produced.
    """
    if alpha < 1.0:
        raise ValueError("the precision factor alpha_r must be >= 1")
    if not plan_ids:
        return []
    return _prune_all_ids_traced(
        result_index,
        candidate_index,
        bounds,
        resolution,
        alpha,
        max_resolution,
        arena,
        plan_ids,
        respect_orders,
        witnesses,
    )


def _prune_all_ids_traced(
    result_index: PlanIndex,
    candidate_index: PlanIndex,
    bounds: CostVector,
    resolution: int,
    alpha: float,
    max_resolution: int,
    arena: PlanArena,
    plan_ids: Sequence[int],
    respect_orders: bool = True,
    witnesses: Optional[Dict[int, Plan]] = None,
) -> List[PruneOutcome]:
    with obs_trace.span(
        "pruning.prune_block", block_size=len(plan_ids), resolution=resolution
    ):
        with obs_trace.span(
            "kernel.block",
            op="take+scale_columns",
            backend=kernel.backend_name(),
            block_size=len(plan_ids),
        ):
            slots = [plan_id - 1 for plan_id in plan_ids]
            columns = kernel.ops.take(arena.costs.columns, slots)
            scaled_columns = kernel.ops.scale_columns(columns, alpha)
        cost_rows = list(zip(*columns))
        scaled_rows = list(zip(*scaled_columns))
        bounds_row = tuple(bounds)
        # The whole block shares one bound vector; bucket it once for the
        # witness searches of every plan in the block.  With the
        # ``bounds_bucket`` feature ablated, None makes every retrieval
        # re-bucket per plan.
        bounds_bucket = (
            result_index.bucket_of(bounds_row)
            if flags.enabled("bounds_bucket")
            else None
        )
        outcomes: List[PruneOutcome] = []
        for position, plan_id in enumerate(plan_ids):
            outcomes.append(
                _prune_core(
                    result_index,
                    candidate_index,
                    bounds_row,
                    resolution,
                    max_resolution,
                    arena,
                    plan_id,
                    cost_rows[position],
                    scaled_rows[position],
                    respect_orders,
                    witnesses,
                    bounds_bucket,
                )
            )
        return outcomes


def _prune_core(
    result_index: PlanIndex,
    candidate_index: PlanIndex,
    bounds_row: Tuple[float, ...],
    resolution: int,
    max_resolution: int,
    arena: PlanArena,
    plan_id: int,
    cost_row: Tuple[float, ...],
    scaled_row: Tuple[float, ...],
    respect_orders: bool,
    witnesses: Optional[Dict[int, Plan]],
    bounds_bucket: Optional[float] = None,
) -> PruneOutcome:
    """Prune one plan given its raw and ``alpha_r``-scaled cost rows."""
    order_id = arena.order_id_of(plan_id)
    witness_id = 0
    if witnesses is not None:
        cached = witnesses.get(plan_id)
        if cached is not None:
            cached_id = cached.plan_id
            if (
                result_index.contains_id(cached_id)
                and result_index.resolution_of_id(cached_id) <= resolution
                and (
                    not respect_orders
                    or order_id == 0
                    or arena.order_id_of(cached_id) == order_id
                )
            ):
                cached_row = arena.cost_row(cached_id)
                if _row_leq(cached_row, bounds_row) and _row_leq(
                    cached_row, scaled_row
                ):
                    witness_id = cached_id
    if witness_id == 0:
        if respect_orders and order_id != 0:
            # Only plans producing the same tuple order may approximate this one.
            witness_id = result_index.find_dominating_id(
                scaled_row, bounds_row, resolution, order_id, bounds_bucket
            )
        else:
            # A plan without ordering requirements is coverable by any plan.
            witness_id = result_index.find_dominating_id(
                scaled_row, bounds_row, resolution, None, bounds_bucket
            )
    if witness_id:
        if witnesses is not None:
            witnesses[plan_id] = arena.plan(witness_id)
        if resolution < max_resolution:
            candidate_index.insert_id(plan_id, resolution + 1, arena, cost_row)
            return PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION
        if witnesses is not None:
            witnesses.pop(plan_id, None)
        return PruneOutcome.DISCARDED
    if not _row_leq(cost_row, bounds_row):
        candidate_index.insert_id(plan_id, resolution, arena, cost_row)
        return PruneOutcome.OUT_OF_BOUNDS
    result_index.insert_id(plan_id, resolution, arena, cost_row)
    if witnesses is not None:
        witnesses.pop(plan_id, None)
    return PruneOutcome.INSERTED
