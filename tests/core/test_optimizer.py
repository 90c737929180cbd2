"""Tests for :mod:`repro.core.optimizer` (procedure Optimize, Algorithm 2).

These tests check both the per-invocation behaviour and the incremental
invariants proven in Section 5 (each plan generated at most once, candidate
retrieval bounds, approximation guarantees relative to the exact Pareto set).
"""

import pytest

from repro import flags
from repro.baselines.exhaustive import ExhaustiveParetoOptimizer
from repro.core.optimizer import IncrementalOptimizer
from repro.core.resolution import ResolutionSchedule
from repro.costs.pareto import approximation_error
from repro.costs.vector import CostVector
from tests.conftest import (
    assert_each_join_built_once,
    build_chain_query,
    build_factory,
)


@pytest.fixture
def schedule():
    return ResolutionSchedule(levels=3, target_precision=1.05, precision_step=0.3)


def make_optimizer(query=None, schedule=None, **kwargs):
    query = query or build_chain_query()
    schedule = schedule or ResolutionSchedule(levels=3, target_precision=1.05, precision_step=0.3)
    factory = build_factory(query)
    return IncrementalOptimizer(query, factory, schedule, **kwargs), factory


UNBOUNDED3 = None  # placeholder, bounds built per metric set


def unbounded(factory):
    return factory.metric_set.unbounded_vector()


class TestSingleInvocation:
    def test_first_invocation_produces_complete_plans(self):
        optimizer, factory = make_optimizer()
        report = optimizer.optimize(unbounded(factory), resolution=0)
        assert report.frontier_size > 0
        assert report.scan_plans_generated > 0
        assert report.join_plans_generated > 0
        frontier = optimizer.frontier(unbounded(factory), 0)
        assert all(plan.tables == optimizer.query.tables for plan in frontier)

    def test_report_reflects_resolution_and_alpha(self):
        optimizer, factory = make_optimizer()
        report = optimizer.optimize(unbounded(factory), resolution=0)
        assert report.resolution == 0
        assert report.alpha == pytest.approx(optimizer.schedule.alpha(0))

    def test_bounds_dimension_mismatch_rejected(self):
        optimizer, factory = make_optimizer()
        with pytest.raises(ValueError):
            optimizer.optimize(CostVector([1.0, 1.0]), resolution=0)

    def test_invalid_resolution_rejected(self):
        optimizer, factory = make_optimizer()
        with pytest.raises(ValueError):
            optimizer.optimize(unbounded(factory), resolution=99)

    def test_single_table_query_only_produces_scans(self):
        query = build_chain_query(("orders",))
        factory = build_factory(query)
        schedule = ResolutionSchedule(levels=2, target_precision=1.05, precision_step=0.3)
        optimizer = IncrementalOptimizer(query, factory, schedule)
        report = optimizer.optimize(factory.metric_set.unbounded_vector(), 0)
        assert report.join_plans_generated == 0
        assert report.frontier_size > 0

    def test_counters_accumulate_across_invocations(self):
        optimizer, factory = make_optimizer()
        optimizer.optimize(unbounded(factory), 0)
        first_total = optimizer.state.counters.plans_generated
        optimizer.optimize(unbounded(factory), 1)
        assert optimizer.state.counters.invocations == 2
        assert optimizer.state.counters.plans_generated >= first_total


class TestIncrementalInvariants:
    def test_scan_plans_are_generated_only_once(self):
        optimizer, factory = make_optimizer()
        optimizer.optimize(unbounded(factory), 0)
        scans_after_first = factory.counters.scan_plans_built
        optimizer.optimize(unbounded(factory), 1)
        optimizer.optimize(unbounded(factory), 2)
        assert factory.counters.scan_plans_built == scans_after_first

    def test_no_subplan_combination_is_generated_twice(self):
        """Lemma 5/6: every plan and sub-plan pair is generated at most once."""
        optimizer, factory = make_optimizer()
        for resolution in range(3):
            optimizer.optimize(unbounded(factory), resolution)
        assert_each_join_built_once(factory)

    def test_repeating_the_same_invocation_does_no_generation_work(self):
        optimizer, factory = make_optimizer()
        optimizer.optimize(unbounded(factory), 0)
        plans_before = factory.counters.total_plans_built
        report = optimizer.optimize(unbounded(factory), 0)
        assert factory.counters.total_plans_built == plans_before
        assert report.join_plans_generated == 0
        assert report.candidates_retrieved == 0

    def test_refining_resolution_is_incremental(self):
        optimizer, factory = make_optimizer()
        optimizer.optimize(unbounded(factory), 0)
        first = factory.counters.total_plans_built
        optimizer.optimize(unbounded(factory), 1)
        second = factory.counters.total_plans_built
        # Refinement generates additional plans but does not regenerate the
        # plans of the first invocation (the factory counters only grow by the
        # fresh combinations).
        assert second >= first
        assert_each_join_built_once(factory)

    def test_candidate_retrievals_bounded_by_levels(self):
        """Lemma 7: each plan is retrieved at most r_M + 1 times."""
        schedule = ResolutionSchedule(levels=4, target_precision=1.02, precision_step=0.5)
        optimizer, factory = make_optimizer(schedule=schedule)
        for resolution in range(4):
            optimizer.optimize(unbounded(factory), resolution)
        counters = optimizer.state.counters
        generated = counters.plans_generated
        assert counters.candidate_retrievals <= generated * schedule.levels

    def test_delta_mode_used_on_refinement(self):
        optimizer, factory = make_optimizer()
        first = optimizer.optimize(unbounded(factory), 0)
        second = optimizer.optimize(unbounded(factory), 1)
        assert first.delta_mode
        assert second.delta_mode

    @pytest.mark.parametrize("opened_with", (False, True))
    def test_the_delta_sets_flag_is_read_when_the_optimizer_opens(self, opened_with):
        with flags.overrides(delta_sets=opened_with):
            optimizer, factory = make_optimizer()
        with flags.overrides(delta_sets=not opened_with):
            optimizer.optimize(unbounded(factory), 0)
            refinement = optimizer.optimize(unbounded(factory), 1)
        assert refinement.delta_mode is opened_with

    def test_disabling_delta_sets_does_not_change_generated_plans(self):
        query = build_chain_query()
        schedule = ResolutionSchedule(levels=3, target_precision=1.05, precision_step=0.3)

        factory_a = build_factory(query)
        with flags.overrides(delta_sets=True):
            with_delta = IncrementalOptimizer(query, factory_a, schedule)
        factory_b = build_factory(query)
        with flags.overrides(delta_sets=False):
            without_delta = IncrementalOptimizer(query, factory_b, schedule)
        for resolution in range(3):
            with_delta.optimize(factory_a.metric_set.unbounded_vector(), resolution)
            without_delta.optimize(factory_b.metric_set.unbounded_vector(), resolution)
        assert (
            factory_a.counters.join_plans_built == factory_b.counters.join_plans_built
        )
        # The delta optimization saves pair enumerations, never plan builds.
        assert (
            with_delta.state.counters.pairs_enumerated
            <= without_delta.state.counters.pairs_enumerated
        )


class TestDiscardBookkeeping:
    def test_discarded_plans_are_tombstoned_once_per_block(self, monkeypatch):
        from repro.core import optimizer as optimizer_module
        from repro.core.pruning import PruneOutcome
        from repro.plans.arena import PlanArena

        blocks, tombstoned = [], []
        prune_all_ids = optimizer_module.prune_all_ids
        tombstone_ids = PlanArena.tombstone_ids

        def spy_prune(*args, **kwargs):
            outcomes = prune_all_ids(*args, **kwargs)
            blocks.append(outcomes.count(PruneOutcome.DISCARDED))
            return outcomes

        def spy_tombstone(arena, plan_ids):
            plan_ids = list(plan_ids)
            tombstoned.append(plan_ids)
            return tombstone_ids(arena, plan_ids)

        monkeypatch.setattr(optimizer_module, "prune_all_ids", spy_prune)
        monkeypatch.setattr(PlanArena, "tombstone_ids", spy_tombstone)
        optimizer, factory = make_optimizer()
        # At the maximal resolution every approximated plan is discarded.
        report = optimizer.optimize(
            unbounded(factory), resolution=optimizer.schedule.max_resolution
        )
        assert report.plans_discarded > 0
        assert [len(ids) for ids in tombstoned] == [n for n in blocks if n]
        assert report.arena_plans_tombstoned == report.plans_discarded
        assert all(factory.arena.is_tombstoned(i) for ids in tombstoned for i in ids)


class TestBoundsHandling:
    def test_out_of_bounds_plans_are_parked_not_lost(self):
        optimizer, factory = make_optimizer()
        metric_set = factory.metric_set
        tight = metric_set.vector(execution_time=1e-6, reserved_cores=1, precision_loss=1.0)
        report = optimizer.optimize(tight, 0)
        assert report.frontier_size == 0
        assert report.plans_out_of_bounds > 0
        assert optimizer.state.total_candidate_plans() > 0

    def test_relaxing_bounds_reactivates_candidates(self):
        optimizer, factory = make_optimizer()
        metric_set = factory.metric_set
        tight = metric_set.vector(execution_time=1e-6, reserved_cores=1, precision_loss=1.0)
        optimizer.optimize(tight, 0)
        report = optimizer.optimize(unbounded(factory), 0)
        assert report.candidates_retrieved > 0
        assert report.frontier_size > 0

    def test_bounded_frontier_respects_bounds(self):
        optimizer, factory = make_optimizer()
        metric_set = factory.metric_set
        optimizer.optimize(unbounded(factory), 0)
        all_costs = [p.cost for p in optimizer.frontier(unbounded(factory), 0)]
        cutoff = sorted(c[0] for c in all_costs)[len(all_costs) // 2]
        bounds = metric_set.unbounded_vector().with_component(0, cutoff)
        optimizer.optimize(bounds, 0)
        for plan in optimizer.frontier(bounds, 0):
            assert plan.cost[0] <= cutoff

    def test_tightening_bounds_avoids_regenerating_plans(self):
        optimizer, factory = make_optimizer()
        metric_set = factory.metric_set
        optimizer.optimize(unbounded(factory), 0)
        built = factory.counters.total_plans_built
        all_costs = [p.cost for p in optimizer.frontier(unbounded(factory), 0)]
        cutoff = sorted(c[0] for c in all_costs)[len(all_costs) // 2]
        bounds = metric_set.unbounded_vector().with_component(0, cutoff)
        optimizer.optimize(bounds, 0)
        # Tighter bounds can only restrict the search space: nothing new to build.
        assert factory.counters.total_plans_built == built


class TestApproximationGuarantee:
    @pytest.mark.parametrize("levels,target", [(1, 1.05), (3, 1.05), (3, 1.2)])
    def test_result_is_alpha_power_n_cover_of_exact_frontier(self, levels, target):
        """Theorem 2 for the complete query at the maximal resolution."""
        query = build_chain_query()
        schedule = ResolutionSchedule(levels=levels, target_precision=target, precision_step=0.3)
        factory = build_factory(query)
        optimizer = IncrementalOptimizer(query, factory, schedule)
        bounds = factory.metric_set.unbounded_vector()
        for resolution in range(levels):
            optimizer.optimize(bounds, resolution)
        approx_frontier = [
            p.cost for p in optimizer.frontier(bounds, schedule.max_resolution)
        ]

        exact_factory = build_factory(query)
        exact = ExhaustiveParetoOptimizer(query, exact_factory)
        exact.optimize()
        exact_frontier = [p.cost for p in exact.frontier()]

        guarantee = schedule.guaranteed_precision(query.table_count)
        error = approximation_error(approx_frontier, exact_frontier)
        assert error <= guarantee + 1e-9

    def test_intermediate_resolutions_also_satisfy_their_guarantee(self):
        query = build_chain_query()
        schedule = ResolutionSchedule(levels=3, target_precision=1.05, precision_step=0.5)
        factory = build_factory(query)
        optimizer = IncrementalOptimizer(query, factory, schedule)
        bounds = factory.metric_set.unbounded_vector()

        exact_factory = build_factory(query)
        exact = ExhaustiveParetoOptimizer(query, exact_factory)
        exact.optimize()
        exact_frontier = [p.cost for p in exact.frontier()]

        for resolution in range(3):
            optimizer.optimize(bounds, resolution)
            frontier = [p.cost for p in optimizer.frontier(bounds, resolution)]
            guarantee = schedule.guaranteed_precision(query.table_count, resolution)
            assert approximation_error(frontier, exact_frontier) <= guarantee + 1e-9
