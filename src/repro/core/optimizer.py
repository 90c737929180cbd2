"""Procedure ``Optimize`` (Algorithm 2): the incremental optimizer.

Each invocation receives the current cost bounds ``b`` and resolution ``r`` and
guarantees that afterwards the result plan sets ``Res^q[0..b, 0..r]`` contain
an ``alpha_r^{|q|}``-approximate b-bounded Pareto plan set for every table
subset ``q`` (Theorems 1 and 2).  The two phases are:

1. **Candidate reconsideration** (lines 6-12): every candidate plan registered
   for the current bounds and a resolution at most ``r`` is removed from the
   candidate set and re-pruned; pruning may promote it to the result set,
   re-park it as a candidate for a higher resolution, or discard it.  Each
   candidate set is drained with one bulk move
   (:meth:`~repro.core.index.PlanIndex.drain_ids`) and re-pruned as one block
   with the cost columns its buckets held, whose re-parked plans return to
   their buckets by run, with one bulk insertion per level.
2. **Fresh plan generation** (lines 13-22): for every table subset of
   increasing cardinality and every split into two parts, fresh combinations
   of result sub-plans are generated (one per applicable join operator,
   Section 4.3), costed, and pruned.

The whole loop runs on *arena plan ids*: the plan indexes yield id blocks,
each table set's result plans are retrieved once per invocation, each
split's fresh pairs are built as two id columns (:mod:`repro.core.fresh`),
and every split's pairs are joined with every operator and costed with one
vectorized kernel call per (operator, metric)
(:meth:`repro.plans.factory.PlanFactory.combine_block`); a table subset's
splits allocate back to back, so its block is one id range, handed to
:func:`repro.core.pruning.prune_all_ids` in one batch -- the outcome
sequence is identical to generating, costing and pruning each plan
individually, but no per-plan Python objects are materialized on the hot
path.  The block's outcomes are booked in bulk as well: the approximated
plans share one outcome object, counted by identity, and the plans
discarded at the maximal resolution are tombstoned with one
:meth:`~repro.plans.arena.PlanArena.tombstone_ids` call.

Incrementality rests on the invocation history, kept by
:class:`_CoverageTracker`.  It decides when the Δ-sets may restrict pair
enumeration to pairs involving a newly inserted plan -- via *covered boxes*,
(bounds, resolution) regions for which all result-plan pairs are known to
have been enumerated, a slightly more explicit (and slightly more
conservative) bookkeeping than the paper's prose description, but provably
safe for arbitrary invocation sequences, not only for monotone
bound-tightening series.  Otherwise every pair is enumerated, and
``IsFresh`` -- no sub-plan pair is ever joined twice (Lemma 6) -- is decided
from the same history: one (bounds, resolution) box per invocation and, per
result plan, a bitmask of the earlier boxes holding it.  No state grows per
generated join.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from itertools import compress, repeat
from operator import is_
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro import flags
from repro.costs.dominance import dominates
from repro.costs.vector import CostVector
from repro.core.fresh import delta_pairs, delta_split, fresh_pairs
from repro.core.index import PlanIndex
from repro.core.pruning import PruneOutcome, prune_all_ids
from repro.core.resolution import ResolutionSchedule
from repro.core.state import OptimizerState
from repro.obs import trace as obs_trace
from repro.plans.factory import PlanFactory
from repro.plans.plan import Plan
from repro.plans.query import Query, plan_order

TableSet = FrozenSet[str]


@dataclass(frozen=True)
class InvocationReport:
    """What a single optimizer invocation did (returned by ``optimize``)."""

    invocation_index: int
    resolution: int
    alpha: float
    bounds: CostVector
    duration_seconds: float
    delta_mode: bool
    candidates_retrieved: int
    pairs_enumerated: int
    join_plans_generated: int
    scan_plans_generated: int
    plans_inserted: int
    plans_deferred: int
    plans_out_of_bounds: int
    plans_discarded: int
    result_plans_total: int
    candidate_plans_total: int
    frontier_size: int
    #: Arena occupancy after the invocation (see ``PlanArena.stats``).
    arena_plans_live: int = 0
    arena_plans_tombstoned: int = 0
    arena_peak_bytes: int = 0


@dataclass(frozen=True)
class _CoveredBox:
    """A (bounds, resolution) region whose result-plan pairs are all enumerated."""

    bounds: CostVector
    resolution: int

    def contains(self, other: "_CoveredBox") -> bool:
        return (
            other.resolution <= self.resolution
            and dominates(other.bounds, self.bounds)
        )


class _CoverageTracker:
    """The invocation history: which sub-plan pairs have been combined.

    **Invariant.**  Write ``B_k^q`` for ``Res^q[0..b_k, 0..r_k]`` at the end
    of invocation ``k``, which ran at bounds ``b_k`` and resolution ``r_k``:
    the *box* of ``k``.  After invocation ``j`` the sub-plan pairs combined
    so far are exactly ``C_j``, the union over ``k <= j`` and over every
    split ``(q1, q2)`` of ``B_k^{q1} x B_k^{q2}``.  By induction on ``j``:

    * Invocation ``j`` visits table subsets bottom-up.  When it reaches a
      split, both sides' result sets are final for the invocation: their
      candidates were reconsidered first, their own fresh blocks were pruned
      earlier (sides are strictly smaller), and result plans are never
      removed.  So each side's retrieval is ``B_j^q``.
    * Full mode enumerates ``B_j^{q1} x B_j^{q2}`` and combines the pairs
      that are not in ``C_{j-1}``.
    * Δ-mode enumerates the pairs with a plan inserted during ``j``.  It runs
      only when :meth:`delta_mode_allowed` finds a covered box whose pairs
      are all combined and which holds every plan of ``B_j`` inserted before
      ``j``, so every pair of two such plans is in ``C_{j-1}`` already.

    Either way ``C_j = C_{j-1} ∪ B_j^{q1} x B_j^{q2}``.

    **IsFresh.**  A result plan's level and cost never change and it is
    never removed, so box ``k`` holds plan ``p`` exactly when ``p`` was
    inserted by the end of ``k``, its level is at most ``r_k`` and its cost
    at most ``b_k`` -- a property of ``p`` alone, kept as bit ``k`` of
    ``p``'s mask.  A pair's table sets fix its split, so by the invariant
    the pair was combined before invocation ``i`` exactly when some box
    ``k < i`` holds both plans: the pair is fresh exactly when
    ``mask_l & mask_r == 0``.  A plan inserted during invocation ``i`` is in
    no earlier box (mask 0), so every Δ-mode pair is fresh and Δ-mode
    checks nothing.  Masks are extended lazily, one table set at a time
    (:meth:`masks`), so sessions that stay in Δ-mode never compute one.
    """

    def __init__(self) -> None:
        self._boxes: List[_CoveredBox] = []
        self._max_resolution_used = -1
        #: ``(bounds row, resolution)`` of every invocation so far, in order.
        self._history: List[Tuple[Tuple[float, ...], int]] = []
        #: Result plan id -> the invocation that inserted it.
        self._inserted_at: Dict[int, int] = {}
        #: Result plan id -> bit ``k`` set when box ``k`` holds the plan, for
        #: the boxes folded into its table set; no entry means no bit set.
        self._masks: Dict[int, int] = {}
        #: Table set -> number of boxes folded into its plans' masks.
        self._folded: Dict[TableSet, int] = {}

    def delta_mode_allowed(self, bounds: CostVector, resolution: int) -> bool:
        """Whether the Δ-set restriction is safe for the upcoming invocation.

        It is when all pairs of previously inserted result plans retrievable
        under the upcoming bounds and resolution have already been
        enumerated.  That is guaranteed when some covered box contains every
        such plan, for which it suffices that the bounds are at least as
        tight as the box bounds and that no old result plan is registered
        above the box resolution but at or below the upcoming resolution.
        """
        if self._max_resolution_used < 0:
            # First invocation: the result sets are empty, every plan inserted
            # during this invocation is in the Δ-set, so the restriction is a
            # no-op and trivially safe.
            return True
        old_plan_level_limit = min(resolution, self._max_resolution_used)
        for box in self._boxes:
            if old_plan_level_limit <= box.resolution and dominates(
                bounds, box.bounds
            ):
                return True
        return False

    def record_invocation(
        self,
        bounds: CostVector,
        resolution: int,
        inserted: Dict[TableSet, List[int]],
    ) -> None:
        """Append the box of an invocation at (bounds, resolution) that
        inserted the result plans ``inserted``, and update the covered boxes.

        Covered boxes whose resolution is at least the current one may now
        contain new result plans whose pairs with other box members were not
        enumerated, so they are dropped; the box of the current invocation
        is added.
        """
        survivors = [box for box in self._boxes if box.resolution < resolution]
        new_box = _CoveredBox(bounds=bounds, resolution=resolution)
        survivors = [box for box in survivors if not new_box.contains(box)]
        survivors.append(new_box)
        self._boxes = survivors
        self._max_resolution_used = max(self._max_resolution_used, resolution)
        invocation = len(self._history)
        self._history.append((tuple(bounds), resolution))
        for plan_ids in inserted.values():
            self._inserted_at.update(dict.fromkeys(plan_ids, invocation))

    def masks(
        self, tables: TableSet, results: PlanIndex, plan_ids: Sequence[int]
    ) -> List[int]:
        """The masks of result plans ``plan_ids`` of table set ``tables``
        (result index ``results``) over every recorded invocation.

        Boxes recorded since the last call for ``tables`` are folded in
        first, one retrieval each.  A plan inserted during the current
        invocation is in no recorded box.
        """
        folded = self._folded.get(tables, 0)
        recorded = len(self._history)
        masks = self._masks
        if folded < recorded:
            inserted_at = self._inserted_at
            for k in range(folded, recorded):
                bounds, resolution = self._history[k]
                bit = 1 << k
                for plan_id in results.retrieve_ids(bounds, resolution):
                    if inserted_at.get(plan_id, recorded) <= k:
                        masks[plan_id] = masks.get(plan_id, 0) | bit
            self._folded[tables] = recorded
        get = masks.get
        return [get(plan_id, 0) for plan_id in plan_ids]


class IncrementalOptimizer:
    """The incremental optimizer: owns the per-query state, runs Algorithm 2.

    Parameters
    ----------
    query:
        The query to optimize.
    factory:
        Plan factory shared by all invocations for this query; its arena is
        the backing store of every plan this optimizer touches.
    schedule:
        Resolution schedule mapping resolution levels to precision factors.
    allow_cross_products:
        When false (default), only connected table subsets are enumerated and
        splits must be linked by at least one join predicate, mirroring the
        Postgres join enumerator.  Set to true for queries whose join graph is
        intentionally disconnected.
    respect_orders:
        Forwarded to the pruning procedure: restrict cost comparisons to plans
        with compatible interesting tuple orders (Section 4.3).
    cell_base:
        Cell width parameter of the plan indexes.
    """

    def __init__(
        self,
        query: Query,
        factory: PlanFactory,
        schedule: ResolutionSchedule,
        allow_cross_products: bool = False,
        respect_orders: bool = True,
        cell_base: float = 2.0,
    ):
        self._query = query
        self._factory = factory
        self._schedule = schedule
        self._respect_orders = respect_orders
        # The Δ-set optimization is ablated by the ``delta_sets`` flag, read
        # once here.  Without it every invocation enumerates all pairs; the
        # invocation history still decides ``IsFresh``, so every invocation
        # builds exactly the same plans.
        self._delta_sets = flags.enabled("delta_sets")
        self._state = OptimizerState(query, cell_base=cell_base)
        self._coverage = _CoverageTracker()
        self._plan_order = plan_order(query, allow_cross_products)

    # ------------------------------------------------------------------
    # Read-only access
    # ------------------------------------------------------------------
    @property
    def query(self) -> Query:
        return self._query

    @property
    def state(self) -> OptimizerState:
        return self._state

    @property
    def schedule(self) -> ResolutionSchedule:
        return self._schedule

    @property
    def factory(self) -> PlanFactory:
        return self._factory

    @property
    def arena(self):
        """The per-query plan arena backing this optimizer."""
        return self._factory.arena

    def frontier(self, bounds: CostVector, resolution: int) -> List[Plan]:
        """Completed query plans respecting the bounds at the given resolution.

        This is the plan set handed to ``Visualize`` in Algorithm 1:
        ``Res^Q[0..b, 0..r]``.
        """
        arena = self._factory.arena
        return [
            arena.plan(plan_id)
            for plan_id in self._state.final_result_set().retrieve_ids(
                bounds, resolution
            )
        ]

    # ------------------------------------------------------------------
    # The optimizer invocation (Algorithm 2)
    # ------------------------------------------------------------------
    def optimize(self, bounds: CostVector, resolution: int) -> InvocationReport:
        """Run one optimizer invocation for the given bounds and resolution."""
        metric_dims = self._factory.metric_set.dimensions
        if len(bounds) != metric_dims:
            raise ValueError(
                f"bounds have {len(bounds)} components but the cost model uses "
                f"{metric_dims} metrics"
            )
        alpha = self._schedule.alpha(resolution)
        max_resolution = self._schedule.max_resolution
        counters = self._state.counters
        before = _CounterSnapshot.capture(counters)
        started = time.perf_counter()

        delta_mode = self._delta_sets and self._coverage.delta_mode_allowed(
            bounds, resolution
        )
        inserted_now: Dict[TableSet, List[int]] = {}

        # Seeding: generate and prune scan plans once per query (Algorithm 1,
        # lines 7-10; folded into the first invocation so that the initial
        # bounds and resolution are the ones actually used).
        if not self._state.seeded:
            with obs_trace.span("optimizer.seed", resolution=resolution):
                self._seed(bounds, resolution, alpha, max_resolution, inserted_now)

        # Phase 1: reconsider candidate plans (lines 6-12).
        with obs_trace.span("optimizer.reconsider", resolution=resolution):
            self._reconsider_candidates(
                bounds, resolution, alpha, max_resolution, inserted_now
            )

        # Phase 2: generate fresh plans bottom-up (lines 13-22).
        with obs_trace.span(
            "optimizer.generate", resolution=resolution, delta_mode=delta_mode
        ):
            self._generate_fresh_plans(
                bounds, resolution, alpha, max_resolution, inserted_now, delta_mode
            )

        self._coverage.record_invocation(bounds, resolution, inserted_now)
        counters.invocations += 1
        arena_stats = self._factory.arena.stats()
        counters.arena_plans_live = arena_stats.plans_live
        counters.arena_plans_tombstoned = arena_stats.plans_tombstoned
        counters.arena_peak_bytes = max(
            counters.arena_peak_bytes, arena_stats.approx_bytes
        )
        duration = time.perf_counter() - started
        after = _CounterSnapshot.capture(counters)
        frontier_size = len(self.frontier(bounds, resolution))
        return InvocationReport(
            invocation_index=counters.invocations,
            resolution=resolution,
            alpha=alpha,
            bounds=bounds,
            duration_seconds=duration,
            delta_mode=delta_mode,
            candidates_retrieved=after.candidate_retrievals - before.candidate_retrievals,
            pairs_enumerated=after.pairs_enumerated - before.pairs_enumerated,
            join_plans_generated=after.join_plans_generated - before.join_plans_generated,
            scan_plans_generated=after.scan_plans_generated - before.scan_plans_generated,
            plans_inserted=after.plans_inserted - before.plans_inserted,
            plans_deferred=after.plans_deferred - before.plans_deferred,
            plans_out_of_bounds=after.plans_out_of_bounds - before.plans_out_of_bounds,
            plans_discarded=after.plans_discarded - before.plans_discarded,
            result_plans_total=self._state.total_result_plans(),
            candidate_plans_total=self._state.total_candidate_plans(),
            frontier_size=frontier_size,
            arena_plans_live=counters.arena_plans_live,
            arena_plans_tombstoned=counters.arena_plans_tombstoned,
            arena_peak_bytes=counters.arena_peak_bytes,
        )

    # ------------------------------------------------------------------
    # Internal phases
    # ------------------------------------------------------------------
    def _seed(
        self,
        bounds: CostVector,
        resolution: int,
        alpha: float,
        max_resolution: int,
        inserted_now: Dict[TableSet, List[int]],
    ) -> None:
        block: List[int] = []
        for table in sorted(self._query.tables):
            block.extend(self._factory.scan_block(table))
        self._state.counters.scan_plans_generated += len(block)
        # The only block that mixes table sets: group it per table set,
        # preserving order, before pruning.
        arena = self._factory.arena
        groups: Dict[TableSet, List[int]] = {}
        for plan_id in block:
            groups.setdefault(arena.tables_of(plan_id), []).append(plan_id)
        for tables, group in groups.items():
            self._prune_block(
                tables, group, bounds, resolution, alpha, max_resolution, inserted_now
            )
        self._state.seeded = True

    def _reconsider_candidates(
        self,
        bounds: CostVector,
        resolution: int,
        alpha: float,
        max_resolution: int,
        inserted_now: Dict[TableSet, List[int]],
    ) -> None:
        counters = self._state.counters
        for tables, candidate_index in list(
            self._state.populated_candidate_sets().items()
        ):
            retrievable, columns, runs = candidate_index.drain_ids(
                bounds, resolution
            )
            counters.candidate_retrievals += len(retrievable)
            self._prune_block(
                tables,
                retrievable,
                bounds,
                resolution,
                alpha,
                max_resolution,
                inserted_now,
                runs,
                columns,
            )

    def _generate_fresh_plans(
        self,
        bounds: CostVector,
        resolution: int,
        alpha: float,
        max_resolution: int,
        inserted_now: Dict[TableSet, List[int]],
        delta_mode: bool,
    ) -> None:
        counters = self._state.counters
        arena = self._factory.arena
        join_operators = self._factory.join_operators()
        # Each table set's result plans in the invocation's box, retrieved
        # once: a set's result plans are final for the invocation once its
        # own block is pruned, and it is split only from larger subsets.
        # Δ-mode keeps them split by delta_split, full mode with their masks.
        sides: Dict[TableSet, Tuple[List[int], list]] = {}

        def side(tables: TableSet) -> Tuple[List[int], list]:
            found = sides.get(tables)
            if found is None:
                results = self._state.result_set(tables)
                plan_ids = results.retrieve_ids(bounds, resolution)
                found = sides[tables] = (
                    plan_ids,
                    delta_split(plan_ids, inserted_now.get(tables, ()))
                    if delta_mode
                    else self._coverage.masks(tables, results, plan_ids),
                )
            return found

        for subset, splits in self._plan_order:
            # Collect every fresh plan of this table subset split by split
            # (each split's fresh pairs costed in one batch), then prune the
            # whole block at once.  Plans of a subset never feed the
            # generation of the same subset (splits are strictly smaller), so
            # deferring the pruning to the block boundary is equivalent to
            # pruning each plan as it is generated.  The splits allocate
            # back to back, and nothing else allocates until the block is
            # pruned, so the block is the range of ids allocated meanwhile.
            first_id = len(arena) + 1
            for left_tables, right_tables in splits:
                if delta_mode and not (
                    inserted_now.get(left_tables) or inserted_now.get(right_tables)
                ):
                    # No fresh sub-plan on either side: every pair of the
                    # retrievable plans has already been combined.
                    continue
                left_ids, left = side(left_tables)
                if not left_ids:
                    continue
                right_ids, right = side(right_tables)
                if not right_ids:
                    continue
                if delta_mode:
                    lefts, rights = delta_pairs(left, right)
                    counters.pairs_enumerated += len(lefts)
                else:
                    counters.pairs_enumerated += len(left_ids) * len(right_ids)
                    lefts, rights = fresh_pairs(left_ids, left, right_ids, right)
                if lefts:
                    self._factory.combine_block(
                        left_tables, right_tables, lefts, rights, join_operators
                    )
            block = range(first_id, len(arena) + 1)
            counters.join_plans_generated += len(block)
            self._prune_block(
                subset, block, bounds, resolution, alpha, max_resolution, inserted_now
            )

    def _prune_block(
        self,
        tables: TableSet,
        plan_ids: Sequence[int],
        bounds: CostVector,
        resolution: int,
        alpha: float,
        max_resolution: int,
        inserted_now: Dict[TableSet, List[int]],
        runs: Optional[List[Tuple[float, int]]] = None,
        columns: Optional[List[array]] = None,
    ) -> None:
        """Prune a block of plan ids, all of table set ``tables``, in order
        (``runs`` and ``columns``: the bucket runs and cost columns of a
        drained candidate block)."""
        if not plan_ids:
            return
        arena = self._factory.arena
        counters = self._state.counters
        outcomes = prune_all_ids(
            result_index=self._state.result_set(tables),
            candidate_index=self._state.candidate_set(tables),
            bounds=bounds,
            resolution=resolution,
            alpha=alpha,
            max_resolution=max_resolution,
            arena=arena,
            plan_ids=plan_ids,
            respect_orders=self._respect_orders,
            runs=runs,
            columns=columns,
        )
        # Most plans hold the approximated outcome, and ``list.count``
        # matches an enum member by identity before comparing; every other
        # plan was visited by the walk, and was inserted or out of bounds.
        approximated = PruneOutcome.approximated(resolution, max_resolution)
        count = outcomes.count(approximated)
        if approximated is PruneOutcome.DISCARDED:
            if count:
                counters.plans_discarded += count
                arena.tombstone_ids(_ids_with(approximated, plan_ids, outcomes))
        else:
            counters.plans_deferred += count
        visited = len(outcomes) - count
        if visited:
            inserted = list(_ids_with(PruneOutcome.INSERTED, plan_ids, outcomes))
            counters.plans_inserted += len(inserted)
            counters.plans_out_of_bounds += visited - len(inserted)
            if inserted:
                inserted_now.setdefault(tables, []).extend(inserted)


def _ids_with(
    outcome: PruneOutcome, plan_ids: Sequence[int], outcomes: List[PruneOutcome]
) -> Iterator[int]:
    """The ids of a pruned block whose outcome is ``outcome``, in order."""
    return compress(plan_ids, map(is_, outcomes, repeat(outcome)))


@dataclass(frozen=True)
class _CounterSnapshot:
    """Snapshot of the state counters for per-invocation deltas."""

    candidate_retrievals: int
    pairs_enumerated: int
    join_plans_generated: int
    scan_plans_generated: int
    plans_inserted: int
    plans_deferred: int
    plans_out_of_bounds: int
    plans_discarded: int

    @classmethod
    def capture(cls, counters) -> "_CounterSnapshot":
        return cls(
            candidate_retrievals=counters.candidate_retrievals,
            pairs_enumerated=counters.pairs_enumerated,
            join_plans_generated=counters.join_plans_generated,
            scan_plans_generated=counters.scan_plans_generated,
            plans_inserted=counters.plans_inserted,
            plans_deferred=counters.plans_deferred,
            plans_out_of_bounds=counters.plans_out_of_bounds,
            plans_discarded=counters.plans_discarded,
        )
