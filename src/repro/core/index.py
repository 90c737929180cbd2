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

The index stores *arena plan ids*, not plan objects: each bucket is a
:class:`~repro.costs.matrix.CostBlock` whose payloads are plain integers.  The
arena of the first registered block is captured, and registering ids of
another arena is refused; callers turn ids back into plan handles with
``arena.plan(plan_id)``.  Pruning asks the result index one range query per
block (:meth:`retrieve_ids`) and compares the retrieved plans itself
(:mod:`repro.core.pruning`).

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
(bucket creation order, slot order).  Blocks move by *bucket run* and with
their cost columns: :meth:`drain_ids` also returns the drained plans' cost
columns, which its buckets already hold (a bucket drained completely hands
over its arrays), and the ``(bucket id, count)`` run each drained bucket
contributed; :meth:`insert_ids` extends each bucket by a column slice per
run, so a re-parked plan's bucket id is not recomputed.  A fresh block is
grouped into runs first, its bucket ids and grouping one kernel call
(``bucket_runs``).  Every plan of a run maps to one shared
``(level, bucket id)`` location, which compaction leaves valid.  Each
direction has one path: :meth:`insert_id` is a one-plan :meth:`insert_ids`,
and :meth:`remove_id` finds its slot by scanning its bucket and removes a
one-slot batch the way :meth:`drain_ids` removes each bucket's batch.
"""

from __future__ import annotations

import math
from array import array
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import kernel
from repro.costs.matrix import CostBlock
from repro.plans.arena import PlanArena

#: Bucket id of plans whose first cost component is ``+inf``.  ``math.inf``
#: compares above every finite bucket id, so the "skip buckets above the
#: bound's bucket" logic handles unbounded costs without a special case.
INFINITE_BUCKET = math.inf

_BucketId = Union[int, float]
#: ``(bucket id, count)``: that many consecutive plans of one bucket.
_Run = Tuple[_BucketId, int]


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
        self._levels: Dict[int, Dict[_BucketId, CostBlock[int]]] = {}
        # plan id -> (resolution, bucket), one tuple shared per registered run
        self._locations: Dict[int, Tuple[int, _BucketId]] = {}

    # ------------------------------------------------------------------
    # Bucketing
    # ------------------------------------------------------------------
    def _bucket_of_first(self, first: float) -> _BucketId:
        return kernel.ops.bucket_of(first, self._log_base)

    def _bucket_of(self, cost: Sequence[float]) -> _BucketId:
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
    def insert_id(
        self, plan_id: int, resolution: int, arena: Optional[PlanArena] = None
    ) -> None:
        """Register the plan with the given arena id (a one-plan
        :meth:`insert_ids`)."""
        self.insert_ids((plan_id,), resolution, arena)

    def insert_ids(
        self,
        plan_ids: Sequence[int],
        resolution: int,
        arena: Optional[PlanArena] = None,
        cost_columns: Optional[Sequence[Sequence[float]]] = None,
        runs: Optional[Sequence[_Run]] = None,
    ) -> None:
        """Register a block of plan ids, all at the same resolution level.

        Ends in the state of registering the ids one at a time in block
        order: buckets are created in the order their first plan appears,
        and each bucket's new slots follow block order.  ``cost_columns``
        may carry the block's cost rows column-wise, parallel to
        ``plan_ids``; otherwise they are read from the arena.  ``runs`` may
        split the block into consecutive ``(bucket id, count)`` runs
        (:meth:`drain_ids`), so that no bucket id is recomputed; otherwise
        one kernel call (``bucket_runs``) computes the block's bucket ids and
        groups it by bucket.  The arena, duplicate-id and run checks run for
        the whole block before anything is registered.
        """
        if not plan_ids:
            return
        if resolution < 0:
            raise ValueError("resolution must be non-negative")
        if runs is not None and (
            sum(count for _, count in runs) != len(plan_ids)
            or min(count for _, count in runs) < 1
        ):
            raise ValueError(f"runs do not split the {len(plan_ids)}-plan block")
        if arena is not None:
            self._adopt_arena(arena)
        owner = self._require_arena()
        if cost_columns is None:
            cost_columns = owner.cost_columns(plan_ids)
        if runs is None:
            order, runs = kernel.ops.bucket_runs(cost_columns[0], self._log_base)
            if order is not None:
                plan_ids = _gather(plan_ids, order)
                cost_columns = kernel.ops.take(cost_columns, order)
        # The block's new locations, one tuple shared per run.
        placed: Dict[int, Tuple[int, _BucketId]] = {}
        start = 0
        for bucket_id, count in runs:
            placed.update(
                dict.fromkeys(plan_ids[start : start + count], (resolution, bucket_id))
            )
            start += count
        locations = self._locations
        if len(placed) != len(plan_ids) or not locations.keys().isdisjoint(
            placed.keys()
        ):
            seen = set(locations)
            for plan_id in plan_ids:
                if plan_id in seen:
                    raise ValueError(
                        f"plan {plan_id} is already registered in this index"
                    )
                seen.add(plan_id)
        level = self._levels.setdefault(resolution, {})
        start = 0
        for bucket_id, count in runs:
            stop = start + count
            bucket = level.get(bucket_id)
            if bucket is None:
                bucket = level[bucket_id] = CostBlock(owner.dimensions)
            bucket.extend(
                [column[start:stop] for column in cost_columns], plan_ids[start:stop]
            )
            start = stop
        locations.update(placed)

    def remove_id(self, plan_id: int) -> None:
        """Remove the plan with the given arena id (found by a bucket scan)."""
        location = self._locations.get(plan_id)
        if location is None:
            raise KeyError(f"plan {plan_id} is not registered in this index")
        resolution, bucket_id = location
        bucket = self._levels[resolution][bucket_id]
        self._remove_slots(resolution, bucket_id, [bucket.items.index(plan_id)])

    def drain_ids(
        self, bounds: Sequence[float], max_resolution: int
    ) -> Tuple[List[int], List[array], List[_Run]]:
        """Remove and return the plans ``retrieve_ids(bounds, max_resolution)``
        returns, in the same order, with their cost columns and the
        ``(bucket id, count)`` run each drained bucket contributed, in drain
        order.

        The bulk move of candidate reconsideration (Algorithm 2, lines 8-11:
        every retrieved candidate leaves the set and is re-pruned).  Each
        bucket loses its drained slots in one :meth:`_remove_slots` pass, so
        the index ends in the state of a :meth:`remove_id` loop.  The columns
        are the buckets' own rows, so the caller never reads the arena for
        them.
        """
        bound_bucket = self._bucket_of(bounds)
        plan_ids: List[int] = []
        columns: List[array] = [array("d") for _ in bounds]
        runs: List[_Run] = []
        for resolution in range(0, max_resolution + 1):
            buckets = self._levels.get(resolution)
            if not buckets:
                continue
            for bucket_id, bucket in list(buckets.items()):
                if bucket_id > bound_bucket:
                    continue
                slots = bucket.matrix.dominated_slots(bounds)
                if not slots:
                    continue
                ids, rows = self._remove_slots(resolution, bucket_id, slots)
                if runs:
                    plan_ids.extend(ids)
                    for column, drained in zip(columns, rows):
                        column.extend(drained)
                else:
                    plan_ids, columns = ids, rows
                runs.append((bucket_id, len(slots)))
        return plan_ids, columns, runs

    def _remove_slots(
        self, resolution: int, bucket_id: _BucketId, slots: Sequence[int]
    ) -> Tuple[List[int], List[array]]:
        """Remove the plans at ``slots`` of one bucket; returns their ids and
        cost columns.

        The slots are tombstoned in one pass and the bucket is compacted at
        most once.  A bucket left empty is deleted, and so is its level once
        that is empty too; a bucket drained of every slot hands over its
        payload list and arrays instead of copying them.
        """
        level = self._levels[resolution]
        bucket = level[bucket_id]
        matrix = bucket.matrix
        if len(slots) == matrix.slot_count:
            removed, columns = bucket.items, matrix.columns
        else:
            removed = _gather(bucket.items, slots)
            columns = kernel.ops.take(matrix.columns, slots)
        locations = self._locations
        for plan_id in removed:
            del locations[plan_id]
        if len(slots) == matrix.live_count:
            del level[bucket_id]
            if not level:
                del self._levels[resolution]
        else:
            bucket.kill_slots(slots)
            bucket.compact_if_needed()
        return removed, columns

    def clear(self) -> None:
        """Remove all plans."""
        self._levels.clear()
        self._locations.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._locations)

    def contains_id(self, plan_id: int) -> bool:
        return plan_id in self._locations

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
                result.extend(
                    _gather(bucket.items, bucket.matrix.dominated_slots(bounds))
                )
        return result


def _gather(values: Sequence[int], positions: Sequence[int]) -> List[int]:
    """``values[position]`` for each of ``positions``, in order."""
    if len(positions) == 1:
        return [values[positions[0]]]
    return list(itemgetter(*positions)(values)) if positions else []
