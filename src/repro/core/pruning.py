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
one-plan block of it.  A block carries its cost columns from its producer to
the indexes: a drained candidate block brings the columns its buckets held,
and a fresh block is a contiguous id range whose columns and order ids are
slices of the arena's.  A block is decided in three steps, and the outcomes
and index states equal those of pruning each plan in block order:

1. **Cover by incumbents.**  ``Res^q[0..b, 0..r]`` is retrieved once, and
   one kernel call (``covered_positions``) per distinct interesting order in
   the block marks every plan some incumbent approximates.  Retrieving at
   block start is exact: result plans are never removed, so the incumbents
   of every plan of the block include these.
2. **Walk the uncovered plans in block order.**  The only incumbents step 1
   cannot see are the block's own result inserts, which happen at ``r`` and
   within the bounds.  So the remaining plans are visited in block order: a
   plan above the bounds is out of bounds, any other is inserted.  A
   liveness bitmap marks the pending plans still undecided; after each
   insert one kernel call (``geq_slots``) over it returns the live plans the
   new incumbent approximates, so the walk sees its own inserts at once.
   Nothing reads the result set during the walk, so the inserts enter it
   with one :meth:`~repro.core.index.PlanIndex.insert_ids` call when the
   walk ends, in block order.
3. **Register candidates at block end.**  Deferred plans (at ``r + 1``) and
   out-of-bounds plans (at ``r``) enter the candidate set with one
   :meth:`~repro.core.index.PlanIndex.insert_ids` call per level, in block
   order.  Delaying them is exact because pruning never reads the candidate
   set.  A drained block's bucket runs are restricted to the registered
   plans, one bisection per run.
"""

from __future__ import annotations

import enum
from array import array
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

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

    @classmethod
    def approximated(cls, resolution: int, max_resolution: int) -> "PruneOutcome":
        """The outcome of a plan some result plan approximates at
        ``resolution``: kept for ``r + 1``, or discarded at ``r_M``."""
        if resolution < max_resolution:
            return cls.DEFERRED_TO_HIGHER_RESOLUTION
        return cls.DISCARDED

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
    runs: Optional[Sequence[Tuple[float, int]]] = None,
    columns: Optional[Sequence[Sequence[float]]] = None,
) -> List[PruneOutcome]:
    """Apply procedure ``Prune`` to a block of arena plan ids of one table set.

    The entry point of the optimizer (seeding, candidate reconsideration and
    fresh-plan generation in :mod:`repro.core.optimizer`).  ``columns`` are
    the block's cost rows when its producer holds them: a block drained
    from ``candidate_index`` comes with its columns and its bucket ``runs``
    (:meth:`~repro.core.index.PlanIndex.drain_ids`).  Otherwise they are
    read from the arena, as slices for a contiguous id range (a fresh
    block).  The block is scaled by ``alpha_r`` with one kernel call, and
    the three steps of the module docstring decide every plan.  Outcomes
    are identical to pruning each plan the moment it was produced.
    """
    if alpha < 1.0:
        raise ValueError("the precision factor alpha_r must be >= 1")
    if not plan_ids:
        return []
    with obs_trace.span(
        "pruning.prune_block", block_size=len(plan_ids), resolution=resolution
    ) as block_span:
        if columns is None:
            columns = arena.cost_columns(plan_ids)
        with obs_trace.span(
            "kernel.block",
            op="scale_columns",
            backend=kernel.backend_name(),
            block_size=len(plan_ids),
        ):
            scaled_columns = kernel.ops.scale_columns(columns, alpha)
        bounds_row = tuple(bounds)
        # Only plans producing the same tuple order may approximate a plan
        # with an interesting order; any plan covers one without.  ``None``
        # when no plan of the block has an order that restricts its cover.
        order_ids: Optional[Sequence[int]] = (
            arena.order_ids(plan_ids) if respect_orders else None
        )
        if order_ids is not None and not any(order_ids):
            order_ids = None

        # Step 1: every plan some in-range incumbent approximates.
        incumbents = result_index.retrieve_ids(bounds_row, resolution)
        covered = _covered_by_incumbents(
            arena, incumbents, scaled_columns, order_ids
        )

        # Step 2: the rest, in block order; its inserts register in one call.
        approximated = PruneOutcome.approximated(resolution, max_resolution)
        outcomes = [approximated] * len(plan_ids)
        visited: List[int] = []
        approximated_positions = covered
        if len(covered) < len(plan_ids):
            visited = _walk_uncovered(
                columns,
                scaled_columns,
                bounds_row,
                order_ids,
                _complement(covered, len(plan_ids)),
                outcomes,
            )
            approximated_positions = _complement(visited, len(plan_ids))
            _register(
                result_index,
                arena,
                plan_ids,
                columns,
                None,
                [
                    position
                    for position in visited
                    if outcomes[position] is PruneOutcome.INSERTED
                ],
                resolution,
            )
        block_span.set(incumbents=len(incumbents), uncovered=len(visited))

        # Step 3: register the candidates in block order, one call per level.
        if approximated is PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION:
            _register(
                candidate_index,
                arena,
                plan_ids,
                columns,
                runs,
                approximated_positions,
                resolution + 1,
            )
        _register(
            candidate_index,
            arena,
            plan_ids,
            columns,
            runs,
            [
                position
                for position in visited
                if outcomes[position] is PruneOutcome.OUT_OF_BOUNDS
            ],
            resolution,
        )
        return outcomes


def _complement(positions: Sequence[int], size: int) -> List[int]:
    """The positions of ``range(size)`` missing from the ascending
    ``positions``: the gaps between them, one range each."""
    missing: List[int] = []
    start = 0
    for position in positions:
        if position > start:
            missing.extend(range(start, position))
        start = position + 1
    missing.extend(range(start, size))
    return missing


def _covered_by_incumbents(
    arena: PlanArena,
    incumbents: Sequence[int],
    scaled_columns: Sequence[Sequence[float]],
    order_ids: Optional[Sequence[int]],
) -> List[int]:
    """Ascending block positions some incumbent approximates (step 1).

    A plan without an interesting order (or every plan, when ``order_ids``
    is ``None``) is compared against every incumbent; a plan with order
    ``o`` only against the incumbents of order ``o``.  One kernel call per
    distinct order.
    """
    if not incumbents:
        return []
    incumbent_columns = arena.cost_columns(incumbents)
    if order_ids is None:
        return kernel.ops.covered_positions(incumbent_columns, scaled_columns)
    groups: Dict[int, List[int]] = {}
    for position, order_id in enumerate(order_ids):
        group = groups.get(order_id)
        if group is None:
            groups[order_id] = [position]
        else:
            group.append(position)
    incumbent_orders = arena.order_ids(incumbents)
    covered: List[int] = []
    for order_id, positions in groups.items():
        if order_id == 0:
            rows = incumbent_columns
        else:
            matching = [
                index
                for index, incumbent_order in enumerate(incumbent_orders)
                if incumbent_order == order_id
            ]
            if not matching:
                continue
            rows = kernel.ops.take(incumbent_columns, matching)
        hits = kernel.ops.covered_positions(
            rows, kernel.ops.take(scaled_columns, positions)
        )
        covered.extend(map(positions.__getitem__, hits))
    covered.sort()
    return covered


def _walk_uncovered(
    columns: Sequence[Sequence[float]],
    scaled_columns: Sequence[Sequence[float]],
    bounds_row: Sequence[float],
    order_ids: Optional[Sequence[int]],
    pending: List[int],
    outcomes: List[PruneOutcome],
) -> List[int]:
    """Decide the plans no incumbent covers, in block order (step 2).

    A plan within the bounds is inserted, and the later pending plans it
    approximates leave the walk (their outcome stays "approximated").  The
    result index is not read during the walk, so the caller registers the
    inserts in one call at block end; ``geq_slots`` over the pending plans
    sees each insert at once.  Every pending plan before the one visited is
    dead in ``alive``, so ``geq_slots`` over the whole bitmap sees only
    later ones; a hit of an order the insert does not provide stays alive.
    Sets the outcome of every plan it visits and returns their positions,
    ascending.
    """
    pending_columns = kernel.ops.take(scaled_columns, pending)
    alive = array("b", [1]) * len(pending)
    live = len(pending)
    visited: List[int] = []
    for k, position in enumerate(pending):
        if not alive[k]:
            continue
        alive[k] = 0
        live -= 1
        visited.append(position)
        cost_row = tuple(column[position] for column in columns)
        if not _row_leq(cost_row, bounds_row):
            outcomes[position] = PruneOutcome.OUT_OF_BOUNDS
            continue
        outcomes[position] = PruneOutcome.INSERTED
        if not live:
            break
        hits = kernel.ops.geq_slots(pending_columns, alive, cost_row)
        if order_ids is not None:
            own = order_ids[position]
            hits = [hit for hit in hits if order_ids[pending[hit]] in (0, own)]
        for hit in hits:
            alive[hit] = 0
        live -= len(hits)
    return visited


def _register(
    index: PlanIndex,
    arena: PlanArena,
    plan_ids: Sequence[int],
    columns: Sequence[Sequence[float]],
    runs: Optional[Sequence[Tuple[float, int]]],
    positions: Sequence[int],
    level: int,
) -> None:
    """Register the block plans at ascending ``positions`` in ``index`` at
    ``level``, in block order, with the columns the block carries."""
    if len(positions) == len(plan_ids):
        index.insert_ids(plan_ids, level, arena, columns, runs)
    elif positions:
        index.insert_ids(
            list(map(plan_ids.__getitem__, positions)),
            level,
            arena,
            kernel.ops.take(columns, positions),
            None if runs is None else _restrict_runs(runs, positions),
        )


def _restrict_runs(
    runs: Sequence[Tuple[float, int]], positions: Sequence[int]
) -> List[Tuple[float, int]]:
    """The runs of the block plans at ascending ``positions``."""
    restricted: List[Tuple[float, int]] = []
    stop = low = 0
    for bucket_id, count in runs:
        stop += count
        high = bisect_left(positions, stop, low)
        if high > low:
            restricted.append((bucket_id, high - low))
            low = high
    return restricted
