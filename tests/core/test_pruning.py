"""Unit tests for :mod:`repro.core.pruning` (procedure Prune, Algorithm 3)."""

import pytest

from repro.core.index import PlanIndex
from repro.core.pruning import PruneOutcome, order_covers, prune
from repro.costs.vector import CostVector
from repro.plans.arena import PlanArena

from tests.conftest import scan_plan


@pytest.fixture
def make_plan():
    """Scan handles in an arena of the test's own."""
    arena = PlanArena(2)
    return lambda cost, order=None: scan_plan(arena, cost, order=order)


@pytest.fixture
def indexes():
    return PlanIndex(), PlanIndex()


UNBOUNDED = CostVector.infinite(2)


def run_prune(indexes, plan, bounds=UNBOUNDED, resolution=0, alpha=1.1, max_resolution=2, **kwargs):
    result_index, candidate_index = indexes
    return prune(
        result_index=result_index,
        candidate_index=candidate_index,
        bounds=bounds,
        resolution=resolution,
        alpha=alpha,
        max_resolution=max_resolution,
        plan=plan,
        **kwargs,
    )


class TestInsertion:
    def test_first_plan_is_inserted(self, indexes, make_plan):
        outcome = run_prune(indexes, make_plan([1, 1]))
        assert outcome is PruneOutcome.INSERTED
        assert outcome.became_result
        assert len(indexes[0]) == 1

    def test_incomparable_plan_is_inserted(self, indexes, make_plan):
        run_prune(indexes, make_plan([1, 5]))
        outcome = run_prune(indexes, make_plan([5, 1]))
        assert outcome is PruneOutcome.INSERTED
        assert len(indexes[0]) == 2

    def test_plan_registered_at_current_resolution(self, indexes, make_plan):
        plan = make_plan([1, 1])
        run_prune(indexes, plan, resolution=1)
        assert indexes[0].resolution_of_id(plan.plan_id) == 1

    def test_dominated_result_plans_are_not_discarded(self, indexes, make_plan):
        worse = make_plan([5, 5])
        run_prune(indexes, worse)
        better = make_plan([1, 1])
        run_prune(indexes, better)
        # Section 4.2: result plans are never removed, even when dominated.
        assert indexes[0].contains_id(worse.plan_id)
        assert indexes[0].contains_id(better.plan_id)


class TestApproximationDeferral:
    def test_approximated_plan_becomes_candidate_for_next_resolution(self, indexes, make_plan):
        run_prune(indexes, make_plan([1, 1]), alpha=1.2)
        similar = make_plan([1.1, 1.1])
        outcome = run_prune(indexes, similar, alpha=1.2)
        assert outcome is PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION
        assert outcome.became_candidate
        assert indexes[1].resolution_of_id(similar.plan_id) == 1

    def test_approximated_at_max_resolution_is_discarded(self, indexes, make_plan):
        run_prune(indexes, make_plan([1, 1]), resolution=2, alpha=1.2)
        outcome = run_prune(indexes, make_plan([1.1, 1.1]), resolution=2, alpha=1.2, max_resolution=2)
        assert outcome is PruneOutcome.DISCARDED
        assert len(indexes[1]) == 0

    def test_clearly_better_plan_is_not_deferred(self, indexes, make_plan):
        run_prune(indexes, make_plan([10, 10]), alpha=1.2)
        outcome = run_prune(indexes, make_plan([1, 1]), alpha=1.2)
        assert outcome is PruneOutcome.INSERTED

    def test_comparison_only_against_lower_or_equal_resolution(self, indexes, make_plan):
        # A plan registered at a higher resolution must not prune new plans
        # (first design decision of Section 4.2).
        fine_plan = make_plan([1, 1])
        run_prune(indexes, fine_plan, resolution=2, alpha=1.01)
        outcome = run_prune(indexes, make_plan([1.001, 1.001]), resolution=0, alpha=1.5)
        assert outcome is PruneOutcome.INSERTED

    def test_alpha_below_one_rejected(self, indexes, make_plan):
        with pytest.raises(ValueError):
            run_prune(indexes, make_plan([1, 1]), alpha=0.9)


class TestBounds:
    def test_out_of_bounds_plan_becomes_candidate_at_current_resolution(self, indexes, make_plan):
        plan = make_plan([10, 10])
        outcome = run_prune(indexes, plan, bounds=CostVector([5, 5]), resolution=1)
        assert outcome is PruneOutcome.OUT_OF_BOUNDS
        assert indexes[1].resolution_of_id(plan.plan_id) == 1

    def test_out_of_bounds_checked_after_approximation(self, indexes, make_plan):
        # A plan that is both approximated and out of bounds is deferred to the
        # next resolution (the approximation branch is tested first in
        # Algorithm 3), not parked for the current one.
        run_prune(indexes, make_plan([1, 1]), bounds=CostVector([5, 5]), alpha=1.3)
        outcome = run_prune(indexes, make_plan([1.1, 1.1]), bounds=CostVector([5, 5]), alpha=1.3)
        assert outcome is PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION

    def test_result_plans_outside_bounds_cannot_approximate(self, indexes, make_plan):
        # Only result plans within the bounds participate in the comparison.
        run_prune(indexes, make_plan([10, 10]))  # inserted under unbounded b
        tight_bounds = CostVector([5, 5])
        outcome = run_prune(indexes, make_plan([11, 11]), bounds=tight_bounds, alpha=2.0)
        assert outcome is PruneOutcome.OUT_OF_BOUNDS


class TestInterestingOrders:
    def test_order_covers_semantics(self, make_plan):
        unordered = make_plan([1, 1])
        ordered = make_plan([1, 1], order="sorted:a")
        other_order = make_plan([1, 1], order="sorted:b")
        assert order_covers(ordered, unordered)
        assert order_covers(unordered, unordered)
        assert order_covers(ordered, ordered)
        assert not order_covers(unordered, ordered)
        assert not order_covers(other_order, ordered)

    def test_ordered_plan_not_pruned_by_unordered_plan(self, indexes, make_plan):
        run_prune(indexes, make_plan([1, 1]), alpha=2.0)
        ordered = make_plan([1.5, 1.5], order="sorted:a")
        outcome = run_prune(indexes, ordered, alpha=2.0)
        assert outcome is PruneOutcome.INSERTED

    def test_unordered_plan_can_be_pruned_by_ordered_plan(self, indexes, make_plan):
        run_prune(indexes, make_plan([1, 1], order="sorted:a"), alpha=2.0)
        outcome = run_prune(indexes, make_plan([1.5, 1.5]), alpha=2.0)
        assert outcome is PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION

    def test_orders_ignored_when_disabled(self, indexes, make_plan):
        run_prune(indexes, make_plan([1, 1]), alpha=2.0)
        ordered = make_plan([1.5, 1.5], order="sorted:a")
        outcome = run_prune(indexes, ordered, alpha=2.0, respect_orders=False)
        assert outcome is PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION
