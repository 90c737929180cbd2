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
   (:meth:`~repro.core.index.PlanIndex.drain_ids`) and re-pruned as one block,
   whose re-parked plans return to their buckets by run, with one bulk
   insertion per level.
2. **Fresh plan generation** (lines 13-22): for every table subset of
   increasing cardinality and every split into two parts, fresh combinations
   of result sub-plans are generated (one per applicable join operator,
   Section 4.3), costed, and pruned.

The whole loop runs on *arena plan ids*: the plan indexes yield id blocks,
fresh pairs are enumerated as integer pairs, ``IsFresh`` filters integer
triples, and every surviving (left, right, operator) block of a table subset
is costed with one vectorized kernel call per metric
(:meth:`repro.plans.factory.PlanFactory.combine_block`) and handed to
:func:`repro.core.pruning.prune_all_ids` in one batch -- the outcome sequence
is identical to generating, costing and pruning each plan individually, but
no per-plan Python objects are materialized on the hot path.  The block's
outcomes are booked in bulk as well: counted per kind, and the plans
discarded at the maximal resolution are tombstoned with one
:meth:`~repro.plans.arena.PlanArena.tombstone_ids` call.

Incrementality rests on two pieces of machinery implemented in
:mod:`repro.core.fresh`: the ``IsFresh`` registry, which guarantees that no
sub-plan pair/operator combination is ever materialized twice (Lemma 6), and
the Δ-set optimization, which skips whole blocks of already-combined pairs when
the invocation history allows it.  The exact condition under which the Δ-sets
may be restricted to newly inserted plans is tracked via *covered boxes* --
(bounds, resolution) regions for which all result-plan pairs are known to have
been enumerated; see :class:`_CoverageTracker`.  This is a slightly more
explicit (and slightly more conservative) bookkeeping than the paper's prose
description, but it is provably safe for arbitrary invocation sequences, not
only for monotone bound-tightening series.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import compress, repeat
from operator import is_
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro import flags
from repro.costs.dominance import dominates
from repro.costs.vector import CostVector
from repro.core.fresh import fresh_id_pairs
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
    """Tracks for which (bounds, resolution) boxes all sub-plan pairs are covered.

    The Δ-set optimization may restrict pair enumeration to pairs involving at
    least one plan inserted during the *current* invocation only when all pairs
    of *previously existing* plans retrievable under the current bounds and
    resolution have already been enumerated.  That is guaranteed when some
    covered box contains every previously existing retrievable plan, for which
    it suffices that the current bounds are at least as tight as the box bounds
    and that no old result plan is registered above the box resolution but at
    or below the current resolution.
    """

    def __init__(self) -> None:
        self._boxes: List[_CoveredBox] = []
        self._max_resolution_used = -1

    def delta_mode_allowed(self, bounds: CostVector, resolution: int) -> bool:
        """Whether the Δ-set restriction is safe for the upcoming invocation."""
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

    def record_invocation(self, bounds: CostVector, resolution: int) -> None:
        """Update the covered boxes after an invocation at (bounds, resolution).

        Boxes whose resolution is at least the current one may now contain new
        result plans whose pairs with other box members were not enumerated,
        so they are dropped; the box of the current invocation is added.
        """
        survivors = [box for box in self._boxes if box.resolution < resolution]
        new_box = _CoveredBox(bounds=bounds, resolution=resolution)
        survivors = [box for box in survivors if not new_box.contains(box)]
        survivors.append(new_box)
        self._boxes = survivors
        self._max_resolution_used = max(self._max_resolution_used, resolution)


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
    use_delta_sets:
        Enable the Δ-set optimization.  Disabling it (ablation
        ``A-abl-2``) keeps the algorithm correct -- ``IsFresh`` still prevents
        duplicate plan construction -- but forces full pair enumeration in
        every invocation.
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
        use_delta_sets: bool = True,
        cell_base: float = 2.0,
    ):
        self._query = query
        self._factory = factory
        self._schedule = schedule
        self._respect_orders = respect_orders
        # The Δ-set optimization can be ablated per optimizer (the keyword,
        # used by the bespoke freshness ablation) or globally (feature flag).
        self._use_delta_sets = use_delta_sets and flags.enabled("delta_sets")
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

        delta_mode = self._use_delta_sets and self._coverage.delta_mode_allowed(
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

        self._coverage.record_invocation(bounds, resolution)
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
            retrievable, runs = candidate_index.drain_ids(bounds, resolution)
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
        freshness = self._state.freshness
        join_operators = self._factory.join_operators()
        operator_keys = [
            freshness.operator_key(operator) for operator in join_operators
        ]
        operator_range = range(len(join_operators))
        for subset, splits in self._plan_order:
            # Collect every fresh combination for this table subset as
            # (left id, right id, operator) triples, cost them split by split
            # with the batched kernel path, then prune the whole block at
            # once.  Plans of a subset never feed the generation of the same
            # subset (splits are strictly smaller), so deferring the pruning
            # to the block boundary is equivalent to pruning each plan as it
            # is generated.
            block: List[int] = []
            for left_tables, right_tables in splits:
                if delta_mode:
                    left_delta = inserted_now.get(left_tables, ())
                    right_delta = inserted_now.get(right_tables, ())
                    if not left_delta and not right_delta:
                        # No fresh sub-plan on either side: every pair of the
                        # retrievable plans has already been combined, so the
                        # retrieval itself can be skipped.
                        continue
                else:
                    left_delta = None
                    right_delta = None
                left_ids = self._state.result_set(left_tables).retrieve_ids(
                    bounds, resolution
                )
                if not left_ids:
                    continue
                right_ids = self._state.result_set(right_tables).retrieve_ids(
                    bounds, resolution
                )
                if not right_ids:
                    continue
                triples: List[Tuple[int, int, int]] = []
                for left_id, right_id in fresh_id_pairs(
                    left_ids, right_ids, left_delta, right_delta
                ):
                    counters.pairs_enumerated += 1
                    for operator_index in operator_range:
                        if not freshness.register_ids(
                            left_id, right_id, operator_keys[operator_index]
                        ):
                            continue
                        triples.append((left_id, right_id, operator_index))
                if triples:
                    block.extend(
                        self._factory.combine_block(
                            left_tables, right_tables, triples, join_operators
                        )
                    )
            counters.join_plans_generated += len(block)
            self._prune_block(
                subset, block, bounds, resolution, alpha, max_resolution, inserted_now
            )

    def _prune_block(
        self,
        tables: TableSet,
        plan_ids: List[int],
        bounds: CostVector,
        resolution: int,
        alpha: float,
        max_resolution: int,
        inserted_now: Dict[TableSet, List[int]],
        runs: Optional[List[Tuple[float, int]]] = None,
    ) -> None:
        """Prune a block of plan ids, all of table set ``tables``, in order
        (``runs``: the bucket runs of a drained candidate block)."""
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
        )
        inserted = outcomes.count(PruneOutcome.INSERTED)
        if inserted:
            counters.plans_inserted += inserted
            inserted_now.setdefault(tables, []).extend(
                _ids_with(PruneOutcome.INSERTED, plan_ids, outcomes)
            )
        counters.plans_deferred += outcomes.count(
            PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION
        )
        counters.plans_out_of_bounds += outcomes.count(PruneOutcome.OUT_OF_BOUNDS)
        discarded = outcomes.count(PruneOutcome.DISCARDED)
        if discarded:
            counters.plans_discarded += discarded
            arena.tombstone_ids(
                _ids_with(PruneOutcome.DISCARDED, plan_ids, outcomes)
            )


def _ids_with(
    outcome: PruneOutcome, plan_ids: List[int], outcomes: List[PruneOutcome]
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
