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

The decision logic operates on arena primitives (plan ids, raw cost rows,
interned order ids) and always runs on a *block* of plans of one table set:
:func:`prune_all_ids` is the optimizer's entry point, and :func:`prune` is a
one-plan block of it.  A block is decided in three steps, and the outcomes,
witnesses and index states equal those of pruning each plan in block order:

1. **Cached witnesses, once per block.**  A plan whose cached witness is
   registered in the result set at resolution ``<= r``, has a compatible
   order, and costs at most the bounds and ``alpha_r * c(p)`` is
   approximated; one kernel call (``rowwise_leq``) compares the whole block's
   witness costs.  Checking at block start is exact: result plans are never
   removed, so membership and resolution cannot change during the block, and
   a plan's cache entry is written only by that plan's own pruning.
2. **Search the rest, in block order.**  Plans without a valid witness run
   the witness search against the live result set, and insertions into the
   result set happen immediately -- a plan inserted earlier in the block can
   approximate a later one, exactly as in the per-plan procedure.
3. **Register candidates at block end.**  Deferred plans (at ``r + 1``) and
   out-of-bounds plans (at ``r``) enter the candidate set with one
   :meth:`~repro.core.index.PlanIndex.insert_ids` call per level, in block
   order.  Delaying them is exact because pruning never reads the candidate
   set.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import kernel
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
    """Apply procedure ``Prune`` to a single plan (a one-plan block).

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
    return prune_all_ids(
        result_index,
        candidate_index,
        bounds,
        resolution,
        alpha,
        max_resolution,
        plan.arena,
        [plan.plan_id],
        respect_orders,
        witnesses,
    )[0]


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
    """Apply procedure ``Prune`` to a block of arena plan ids of one table set.

    The entry point of the optimizer (seeding, candidate reconsideration and
    fresh-plan generation in :mod:`repro.core.optimizer`).  The block's cost
    rows are gathered from the arena matrix and scaled by ``alpha_r`` with
    one kernel call each; the three steps of the module docstring then
    decide every plan.  Outcomes are identical to pruning each plan the
    moment it was produced.
    """
    if alpha < 1.0:
        raise ValueError("the precision factor alpha_r must be >= 1")
    if not plan_ids:
        return []
    with obs_trace.span(
        "pruning.prune_block", block_size=len(plan_ids), resolution=resolution
    ) as block_span:
        with obs_trace.span(
            "kernel.block",
            op="take+scale_columns",
            backend=kernel.backend_name(),
            block_size=len(plan_ids),
        ):
            columns = kernel.ops.take(
                arena.costs.columns, [plan_id - 1 for plan_id in plan_ids]
            )
            scaled_columns = kernel.ops.scale_columns(columns, alpha)
        bounds_row = tuple(bounds)

        # Step 1: every plan whose cached witness still approximates it.
        settled = (
            _cached_witness_positions(
                result_index,
                arena,
                plan_ids,
                scaled_columns,
                bounds_row,
                resolution,
                respect_orders,
                witnesses,
            )
            if witnesses is not None
            else set()
        )
        block_span.set(cached=len(settled), searched=len(plan_ids) - len(settled))

        # Step 2: search the rest in block order.  Result inserts are
        # immediate: a plan inserted earlier in the block can approximate a
        # later one.
        approximated = (
            PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION
            if resolution < max_resolution
            else PruneOutcome.DISCARDED
        )
        outcomes = [approximated] * len(plan_ids)
        # The whole block shares one bound vector; bucket it once for every
        # witness search.
        bounds_bucket = result_index.bucket_of(bounds_row)
        for position, plan_id in enumerate(plan_ids):
            if position in settled:
                continue
            order_id = arena.order_id_of(plan_id)
            # Only plans producing the same tuple order may approximate a
            # plan with an interesting order; any plan covers one without.
            witness_id = result_index.find_dominating_id(
                tuple(column[position] for column in scaled_columns),
                bounds_row,
                resolution,
                order_id if respect_orders and order_id != 0 else None,
                bounds_bucket,
            )
            if witness_id:
                if witnesses is not None:
                    witnesses[plan_id] = arena.plan(witness_id)
                continue
            cost_row = tuple(column[position] for column in columns)
            if not _row_leq(cost_row, bounds_row):
                outcomes[position] = PruneOutcome.OUT_OF_BOUNDS
                continue
            result_index.insert_id(plan_id, resolution, arena, cost_row)
            if witnesses is not None:
                witnesses.pop(plan_id, None)
            outcomes[position] = PruneOutcome.INSERTED
        if approximated is PruneOutcome.DISCARDED and witnesses is not None:
            for plan_id, outcome in zip(plan_ids, outcomes):
                if outcome is PruneOutcome.DISCARDED:
                    witnesses.pop(plan_id, None)

        # Step 3: register the candidates in block order, one call per level.
        for kind, level in (
            (PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION, resolution + 1),
            (PruneOutcome.OUT_OF_BOUNDS, resolution),
        ):
            positions = [
                position
                for position, outcome in enumerate(outcomes)
                if outcome is kind
            ]
            if positions:
                candidate_index.insert_ids(
                    [plan_ids[position] for position in positions],
                    level,
                    arena,
                    kernel.ops.take(columns, positions),
                )
        return outcomes


def _cached_witness_positions(
    result_index: PlanIndex,
    arena: PlanArena,
    plan_ids: Sequence[int],
    scaled_columns: Sequence[Sequence[float]],
    bounds_row: Tuple[float, ...],
    resolution: int,
    respect_orders: bool,
    witnesses: Dict[int, Plan],
) -> Set[int]:
    """Block positions whose cached witness approximates the plan (step 1).

    The witness must be a result plan registered at resolution ``<= r``,
    offer the plan's interesting order (when orders are respected), and cost
    at most the bounds and the plan's scaled cost (Algorithm 3 line 7).
    """
    cached_ids = [
        0 if witness is None else witness.plan_id
        for witness in map(witnesses.get, plan_ids)
    ]
    positions = [
        position
        for position, registered in enumerate(
            result_index.registered_within(cached_ids, resolution)
        )
        if registered
    ]
    if respect_orders and positions:
        # A plan with an interesting order needs a witness with that order.
        order_ids = arena.order_ids(plan_ids[position] for position in positions)
        witness_order_ids = arena.order_ids(
            cached_ids[position] for position in positions
        )
        positions = [
            position
            for position, order_id, witness_order_id in zip(
                positions, order_ids, witness_order_ids
            )
            if order_id == 0 or order_id == witness_order_id
        ]
    if not positions:
        return set()
    hits = kernel.ops.rowwise_leq(
        kernel.ops.take(
            arena.costs.columns, [cached_ids[position] - 1 for position in positions]
        ),
        kernel.ops.take(scaled_columns, positions),
        bounds_row,
    )
    return {positions[hit] for hit in hits}
