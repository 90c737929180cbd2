"""Plan index supporting (cost, resolution) range queries.

Both the result plan set and the candidate plan set are "indexed by plan cost
and by resolution level.  Using a data structure supporting multi-dimensional
range queries allows to efficiently retrieve plans whose cost is within a
certain range and which are registered for a certain range of resolution
levels" (Section 4).  The paper points to the cell data structure of Bentley &
Friedman and assumes retrieval of ``F`` plans in ``O(F)`` and insertion in
``O(1)`` (Section 5.3), noting that logarithmic partitioning of the cost space
is a natural fit because approximate dominance regions are defined by constant
factors.

:class:`PlanIndex` implements exactly that: plans are grouped per resolution
level, and within a level they are bucketed by the logarithm of their first
cost component (a one-dimensional cell partition -- sufficient because the
range queries issued by the optimizer are always of the form "cost dominated by
``b``, resolution at most ``r``", i.e. a lower-left box, so pruning whole
buckets by their first-dimension lower bound is safe and effective).  Plans
with an infinite first cost component live in a dedicated sentinel bucket that
compares *above* every finite bucket, so the bucket-skipping comparisons treat
them as maximally expensive (they can never satisfy finite bounds) instead of
accidentally ranking them below the cheapest plans.

Since the arena refactor the index stores *arena plan ids*, not plan objects:
each bucket is a :class:`~repro.costs.matrix.CostBlock` whose payloads are
plain integers, and the arena reference (captured from the first inserted
plan) turns ids back into canonical handles only at the object-API boundary
(:meth:`retrieve`, :meth:`find_dominating`).  The id-level methods
(:meth:`retrieve_ids`, :meth:`insert_id`, :meth:`find_dominating_id` and the
bulk :meth:`drain_ids` / :meth:`insert_ids`) are the optimizer's hot path --
no handle materialization, interesting-order filters as integer comparisons.

Each bucket stores its plans alongside a
:class:`~repro.costs.matrix.CostMatrix` of their cost vectors, so the
surviving buckets of a query are filtered with one batched kernel call each
(:mod:`repro.kernel`) instead of a per-plan ``dominates()`` loop.  Removal
tombstones the bucket slot and compacts lazily, preserving insertion order --
retrieval therefore returns plans in exactly the order the scalar
implementation did, which keeps frontiers byte-identical.

The index never stores duplicate plan ids and supports removal, which the
candidate set needs (every retrieved candidate is deleted and re-pruned,
Algorithm 2 lines 8-11).  The optimizer moves candidates in bulk:
:meth:`drain_ids` removes exactly what :meth:`retrieve_ids` returns, one
tombstone pass and at most one compaction per bucket, and :meth:`insert_ids`
registers a block with the outcome of registering its plans one at a time
(bucket creation order, slot order, Pareto-front folding).  Each direction
has one path: :meth:`insert_id` is a one-plan :meth:`insert_ids`, and
:meth:`remove_id` -- used only by the object API (:meth:`remove`,
:meth:`discard`) -- removes a one-slot batch the way :meth:`drain_ids`
removes each bucket's batch.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro import flags
from repro.costs.matrix import CostBlock
from repro.costs.vector import CostVector
from repro.plans.arena import PlanArena
from repro.plans.plan import Plan

#: Bucket id of plans whose first cost component is ``+inf``.  ``math.inf``
#: compares above every finite bucket id, so the "skip buckets above the
#: bound's bucket" logic handles unbounded costs without a special case.
INFINITE_BUCKET = math.inf

_BucketId = Union[int, float]


@dataclass(frozen=True)
class IndexedPlan:
    """A plan together with the resolution level it is registered for."""

    plan: Plan
    resolution: int


class _Bucket(CostBlock[int]):
    """One (resolution, cell) pair: the plan ids plus their cost matrix.

    Under the ``incremental_pareto`` flag each bucket additionally maintains
    its Pareto front -- the non-dominated cost rows with their plan ids --
    across invocations.  The front is built lazily on the first witness
    search that touches the bucket and then updated in place on insertion
    (Section 5.3 assumes O(1) amortized index maintenance, which a full
    re-sweep per query would break).  A witness exists on the front if and
    only if one exists in the full bucket: every non-front row is dominated
    by (or equal to) some front row, and dominance is transitive.  The
    *identity* of the witness may differ from the full-bucket scan, which is
    fine -- :meth:`PlanIndex.find_dominating_id` only promises *some*
    dominating plan, and the pruning layer re-validates cached witnesses
    before use.

    Removing a front member invalidates the front (rebuilt lazily on the
    next search); removing a dominated row leaves it untouched.  Result
    indexes -- the only ones the optimizer issues witness searches against --
    rarely remove plans at all (dominated result plans are kept as potential
    sub-plans, Section 4.2), so invalidation is the cold path.
    """

    __slots__ = ("front", "front_ids")

    def __init__(self, dimensions: int):
        super().__init__(dimensions)
        #: Pareto front of the bucket (``None`` = not built / invalidated).
        self.front: Optional[CostBlock[int]] = None
        #: Plan ids currently on the front (parallel to ``front``).
        self.front_ids: Optional[set] = None

    def pareto_front(self) -> CostBlock[int]:
        """The bucket's Pareto front, building it on first use."""
        front = self.front
        if front is None:
            matrix = self.matrix
            front = CostBlock(matrix.dimensions)
            ids = set()
            for slot, keep in zip(matrix.alive_slots(), matrix.pareto_mask()):
                if keep:
                    plan_id = self.items[slot]
                    front.append(matrix.row(slot), plan_id)
                    ids.add(plan_id)
            self.front = front
            self.front_ids = ids
        return front

    def front_note_insert(self, cost_row: Sequence[float], plan_id: int) -> None:
        """Fold a newly appended row into the materialized front, if any."""
        front = self.front
        if front is None:
            return
        row = tuple(cost_row)
        if front.matrix.any_dominating(row):
            # Dominated by (or equal to) an incumbent: not on the front.
            return
        # Evict incumbents the new row strictly dominates.  (Equal rows
        # cannot appear here -- equality would have tripped the dominance
        # check above.)
        for slot in front.matrix.dominated_by_slots(row):
            self.front_ids.discard(front.items[slot])
            front.kill(slot)
        front.compact_if_needed()
        front.append(row, plan_id)
        self.front_ids.add(plan_id)

    def front_note_remove(self, plan_ids: Iterable[int]) -> None:
        """Invalidate the front when one of its members is removed."""
        if self.front_ids is not None and not self.front_ids.isdisjoint(plan_ids):
            self.front = None
            self.front_ids = None


class PlanIndex:
    """Plans indexed by cost vector and resolution level.

    Parameters
    ----------
    cell_base:
        Base of the logarithmic partitioning of the first cost dimension.
        Cost values ``c`` land in bucket ``floor(log_base(c + 1))``.  A larger
        base means fewer, coarser buckets.
    """

    def __init__(self, cell_base: float = 2.0):
        if cell_base <= 1.0:
            raise ValueError("cell_base must be greater than 1")
        self._cell_base = cell_base
        self._log_base = math.log(cell_base)
        #: Arena that resolves the stored ids; captured on first insertion.
        self._arena: Optional[PlanArena] = None
        # resolution level -> bucket id -> bucket (insertion-ordered dicts)
        self._levels: Dict[int, Dict[_BucketId, _Bucket]] = {}
        # resolution level -> bucket ids in ascending order (the witness
        # search scans buckets cheap-to-expensive; kept sorted incrementally
        # so no per-query sort is needed)
        self._sorted_ids: Dict[int, List[_BucketId]] = {}
        # plan id -> (resolution, bucket, slot) for O(1) removal bookkeeping
        self._locations: Dict[int, Tuple[int, _BucketId, int]] = {}

    # ------------------------------------------------------------------
    # Bucketing
    # ------------------------------------------------------------------
    def _bucket_of_first(self, first: float) -> _BucketId:
        if math.isinf(first):
            return INFINITE_BUCKET
        return int(math.log(first + 1.0) / self._log_base)

    def _bucket_of(self, cost: Sequence[float]) -> _BucketId:
        return self._bucket_of_first(cost[0])

    def bucket_of(self, cost: Sequence[float]) -> _BucketId:
        """Cell bucket id of a cost row (exposed for batch callers that
        bucket a shared bound vector once per block)."""
        return self._bucket_of_first(cost[0])

    def _require_arena(self) -> PlanArena:
        if self._arena is None:
            raise ValueError("the index is empty; no arena captured yet")
        return self._arena

    def _adopt_arena(self, arena: PlanArena) -> None:
        if self._arena is None:
            self._arena = arena
        elif self._arena is not arena:
            raise ValueError(
                "cannot mix plans from different arenas in one plan index"
            )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, plan: Plan, resolution: int) -> None:
        """Register ``plan`` for the given resolution level."""
        self.insert_id(plan.plan_id, resolution, plan.arena)

    def insert_id(
        self,
        plan_id: int,
        resolution: int,
        arena: Optional[PlanArena] = None,
        cost_row: Optional[Sequence[float]] = None,
    ) -> None:
        """Register the plan with the given arena id (a one-plan
        :meth:`insert_ids`).

        ``cost_row`` may carry the plan's already-gathered cost row (the
        batched pruning path has it at hand), saving one arena read.
        """
        self.insert_ids(
            (plan_id,),
            resolution,
            arena,
            None if cost_row is None else [[value] for value in cost_row],
        )

    def insert_ids(
        self,
        plan_ids: Sequence[int],
        resolution: int,
        arena: Optional[PlanArena] = None,
        cost_columns: Optional[Sequence[Sequence[float]]] = None,
    ) -> None:
        """Register a block of plan ids, all at the same resolution level.

        Ends in the state of registering the ids one at a time in block
        order: buckets are created in the order their first plan appears,
        each bucket's new slots follow block order, and a materialized Pareto
        front folds the new rows in that order.  ``cost_columns`` may carry
        the block's cost rows column-wise, parallel to ``plan_ids``.  The
        arena and duplicate-id checks run for the whole block before
        anything is registered.
        """
        if not plan_ids:
            return
        if resolution < 0:
            raise ValueError("resolution must be non-negative")
        if arena is not None:
            self._adopt_arena(arena)
        owner = self._require_arena()
        locations = self._locations
        block = set(plan_ids)
        if len(block) != len(plan_ids) or not locations.keys().isdisjoint(block):
            seen = set(locations)
            for plan_id in plan_ids:
                if plan_id in seen:
                    raise ValueError(
                        f"plan {plan_id} is already registered in this index"
                    )
                seen.add(plan_id)
        if cost_columns is None:
            cost_columns = [
                [column[plan_id - 1] for plan_id in plan_ids]
                for column in owner.costs.columns
            ]
        # Group block positions by bucket, in order of first appearance.
        bucket_of_first = self._bucket_of_first
        groups: Dict[_BucketId, List[int]] = {}
        for position, first in enumerate(cost_columns[0]):
            bucket_id = bucket_of_first(first)
            group = groups.get(bucket_id)
            if group is None:
                groups[bucket_id] = [position]
            else:
                group.append(position)
        level = self._levels.setdefault(resolution, {})
        for bucket_id, positions in groups.items():
            bucket = level.get(bucket_id)
            if bucket is None:
                bucket = _Bucket(owner.dimensions)
                level[bucket_id] = bucket
                insort(self._sorted_ids.setdefault(resolution, []), bucket_id)
            ids = [plan_ids[position] for position in positions]
            rows = [
                [column[position] for position in positions]
                for column in cost_columns
            ]
            slot = bucket.extend(rows, ids)
            if bucket.front is not None:
                for row, plan_id in zip(zip(*rows), ids):
                    bucket.front_note_insert(row, plan_id)
            locations.update(
                zip(
                    ids,
                    zip(
                        repeat(resolution),
                        repeat(bucket_id),
                        range(slot, slot + len(ids)),
                    ),
                )
            )

    def remove(self, plan: Plan) -> None:
        """Remove a previously registered plan."""
        if plan.arena is not self._arena:
            raise KeyError(
                f"plan {plan.plan_id} belongs to a different arena than this index"
            )
        self.remove_id(plan.plan_id)

    def remove_id(self, plan_id: int) -> None:
        """Remove the plan with the given arena id."""
        location = self._locations.get(plan_id)
        if location is None:
            raise KeyError(f"plan {plan_id} is not registered in this index")
        resolution, bucket_id, slot = location
        self._remove_slots(resolution, bucket_id, [slot])

    def drain_ids(self, bounds: Sequence[float], max_resolution: int) -> List[int]:
        """Remove and return the plans ``retrieve_ids(bounds, max_resolution)``
        returns, in the same order.

        The bulk move of candidate reconsideration (Algorithm 2, lines 8-11:
        every retrieved candidate leaves the set and is re-pruned).  Each
        bucket loses its drained slots in one :meth:`_remove_slots` pass, so
        the index ends in the state of a :meth:`remove_id` loop.
        """
        bound_bucket = self._bucket_of(bounds)
        result: List[int] = []
        for resolution in range(0, max_resolution + 1):
            buckets = self._levels.get(resolution)
            if not buckets:
                continue
            for bucket_id, bucket in list(buckets.items()):
                if bucket_id > bound_bucket:
                    continue
                slots = bucket.matrix.dominated_slots(bounds)
                if slots:
                    result.extend(self._remove_slots(resolution, bucket_id, slots))
        return result

    def _remove_slots(
        self, resolution: int, bucket_id: _BucketId, slots: Sequence[int]
    ) -> List[int]:
        """Remove the plans at ``slots`` of one bucket; returns their ids.

        The slots are tombstoned in one pass and the bucket is compacted at
        most once.  A bucket left empty is deleted, and so is its level once
        that is empty too.
        """
        level = self._levels[resolution]
        bucket = level[bucket_id]
        items = bucket.items
        removed = [items[slot] for slot in slots]
        locations = self._locations
        for plan_id in removed:
            del locations[plan_id]
        if len(slots) == bucket.matrix.live_count:
            del level[bucket_id]
            self._sorted_ids[resolution].remove(bucket_id)
            if not level:
                del self._levels[resolution]
                del self._sorted_ids[resolution]
            return removed
        bucket.kill_slots(slots)
        bucket.front_note_remove(removed)
        if bucket.compact_if_needed() is not None:
            for new_slot, survivor in enumerate(bucket.items):
                locations[survivor] = (resolution, bucket_id, new_slot)
        return removed

    def discard(self, plan: Plan) -> bool:
        """Remove the plan if present; return whether it was present."""
        if plan not in self:
            return False
        self.remove_id(plan.plan_id)
        return True

    def clear(self) -> None:
        """Remove all plans."""
        self._levels.clear()
        self._sorted_ids.clear()
        self._locations.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._locations)

    def __contains__(self, plan: Plan) -> bool:
        # Plan ids are only unique per arena, so a handle from a foreign
        # arena must never match a registered id by coincidence.
        return plan.arena is self._arena and plan.plan_id in self._locations

    def contains_id(self, plan_id: int) -> bool:
        return plan_id in self._locations

    def registered_within(
        self, plan_ids: Iterable[int], max_resolution: int
    ) -> List[bool]:
        """Per id, whether it is registered at a resolution ``<= max_resolution``."""
        return [
            location is not None and location[0] <= max_resolution
            for location in map(self._locations.get, plan_ids)
        ]

    def resolution_of(self, plan: Plan) -> int:
        """The resolution level the plan is registered for."""
        if plan.arena is not self._arena:
            raise KeyError(
                f"plan {plan.plan_id} belongs to a different arena than this index"
            )
        return self.resolution_of_id(plan.plan_id)

    def resolution_of_id(self, plan_id: int) -> int:
        try:
            return self._locations[plan_id][0]
        except KeyError:
            raise KeyError(
                f"plan {plan_id} is not registered in this index"
            ) from None

    def all_ids(self) -> List[int]:
        """Every registered plan id, in no particular order."""
        result: List[int] = []
        for buckets in self._levels.values():
            for bucket in buckets.values():
                result.extend(bucket.live_items())
        return result

    def all_plans(self) -> List[Plan]:
        """Every registered plan, in no particular order."""
        arena = self._arena
        if arena is None:
            return []
        return [arena.plan(plan_id) for plan_id in self.all_ids()]

    def all_entries(self) -> List[IndexedPlan]:
        """Every registered plan with its resolution level."""
        arena = self._arena
        result: List[IndexedPlan] = []
        for resolution, buckets in self._levels.items():
            for bucket in buckets.values():
                result.extend(
                    IndexedPlan(arena.plan(plan_id), resolution)
                    for plan_id in bucket.live_items()
                )
        return result

    def count_at_resolution(self, resolution: int) -> int:
        """Number of plans registered exactly at the given resolution."""
        buckets = self._levels.get(resolution, {})
        return sum(bucket.matrix.live_count for bucket in buckets.values())

    def retrieve_ids(
        self,
        bounds: Sequence[float],
        max_resolution: int,
        min_resolution: int = 0,
    ) -> List[int]:
        """Ids of plans with cost dominated by ``bounds``, resolution in range.

        This is the range query written ``S^q[0..b, 0..r]`` in the paper
        (optionally with a non-zero lower resolution limit, which the
        re-indexing of candidate plans uses).  Each surviving bucket is
        filtered with one batched kernel call.
        """
        if max_resolution < min_resolution:
            return []
        bound_bucket = self._bucket_of(bounds)
        result: List[int] = []
        for resolution in range(min_resolution, max_resolution + 1):
            buckets = self._levels.get(resolution)
            if not buckets:
                continue
            for bucket_id, bucket in buckets.items():
                if bucket_id > bound_bucket:
                    continue
                plan_ids = bucket.items
                result.extend(
                    plan_ids[slot] for slot in bucket.matrix.dominated_slots(bounds)
                )
        return result

    def retrieve(
        self,
        bounds: CostVector,
        max_resolution: int,
        min_resolution: int = 0,
    ) -> List[Plan]:
        """Like :meth:`retrieve_ids` but returns canonical plan handles."""
        ids = self.retrieve_ids(bounds, max_resolution, min_resolution)
        if not ids:
            return []
        arena = self._require_arena()
        return [arena.plan(plan_id) for plan_id in ids]

    def retrieve_entries(
        self,
        bounds: CostVector,
        max_resolution: int,
        min_resolution: int = 0,
    ) -> List[IndexedPlan]:
        """Like :meth:`retrieve` but also returns each plan's resolution."""
        if max_resolution < min_resolution:
            return []
        arena = self._arena
        bound_bucket = self._bucket_of(bounds)
        result: List[IndexedPlan] = []
        for resolution in range(min_resolution, max_resolution + 1):
            buckets = self._levels.get(resolution)
            if not buckets:
                continue
            for bucket_id, bucket in buckets.items():
                if bucket_id > bound_bucket:
                    continue
                plan_ids = bucket.items
                result.extend(
                    IndexedPlan(arena.plan(plan_ids[slot]), resolution)
                    for slot in bucket.matrix.dominated_slots(bounds)
                )
        return result

    def find_dominating_id(
        self,
        target: Sequence[float],
        bounds: Sequence[float],
        max_resolution: int,
        order_id: Optional[int] = None,
        bounds_bucket: Optional[float] = None,
    ) -> int:
        """Id of some in-range plan whose cost dominates ``target``, or 0.

        The id-level witness search of Algorithm 3 line 7
        (``∃ p_A ∈ Res^q[0..b, 0..r] : c(p_A) ⪯ alpha_r · c(p)``); the caller
        passes the already-scaled ``target`` row.  ``order_id`` restricts the
        comparison to plans with exactly that interned interesting order
        (Section 4.3); ``None`` accepts any plan.

        Buckets are scanned in ascending first-metric order because
        dominating plans are cheap plans, which makes the short-circuit
        trigger early.  A plan dominates both ``bounds`` and ``target``
        exactly when it dominates their component-wise minimum, so each
        bucket needs a single batched kernel call.  Batch callers pruning a
        whole block under one bound vector pass the precomputed
        ``bounds_bucket`` to skip re-bucketing the bounds per plan.
        """
        if len(target) != len(bounds):
            raise ValueError(
                "cannot compare cost vectors of different dimensionality"
            )
        if bounds_bucket is None:
            bounds_bucket = self._bucket_of(bounds)
        bucket_limit = min(bounds_bucket, self._bucket_of(target))
        combined = tuple(map(min, bounds, target))
        arena = self._arena
        # Under the incremental_pareto flag, unfiltered witness searches scan
        # each bucket's maintained Pareto front instead of the full bucket: a
        # dominating row exists in the bucket iff one exists on its front,
        # and the expensive case of this search -- a miss, which scans every
        # in-range bucket end to end -- shrinks from O(bucket) to O(front).
        use_fronts = order_id is None and flags.enabled("incremental_pareto")
        for resolution in range(0, max_resolution + 1):
            buckets = self._levels.get(resolution)
            if not buckets:
                continue
            for bucket_id in self._sorted_ids[resolution]:
                if bucket_id > bucket_limit:
                    # Every plan in this (and any later) bucket has a
                    # first-metric cost above the bounds or the target, so
                    # none of them can qualify.
                    break
                bucket = buckets[bucket_id]
                if use_fronts:
                    front = bucket.pareto_front()
                    slot = front.matrix.first_dominating(combined)
                    if slot != -1:
                        return front.items[slot]
                elif order_id is None:
                    slot = bucket.matrix.first_dominating(combined)
                    if slot != -1:
                        return bucket.items[slot]
                else:
                    for slot in bucket.matrix.dominated_slots(combined):
                        plan_id = bucket.items[slot]
                        if arena.order_id_of(plan_id) == order_id:
                            return plan_id
        return 0

    def find_dominating(
        self,
        target: CostVector,
        bounds: CostVector,
        max_resolution: int,
    ) -> Optional[Plan]:
        """Return some in-range plan whose cost dominates ``target``, if any.

        Object-level wrapper over :meth:`find_dominating_id`.  The returned
        plan is a *witness* of the approximation; the pruning layer caches it
        so that re-checking a deferred candidate at the next resolution level
        is usually a single dominance test.
        """
        plan_id = self.find_dominating_id(target, bounds, max_resolution)
        return self._arena.plan(plan_id) if plan_id else None
