"""Unit tests for :mod:`repro.core.index`."""

import pytest

from repro.core.index import PlanIndex
from repro.costs.vector import CostVector
from repro.plans.operators import ScanOperator
from repro.plans.plan import ScanPlan


def make_plan(cost, order=None):
    return ScanPlan("t", ScanOperator("seq_scan"), CostVector(cost), interesting_order=order)


@pytest.fixture
def index():
    return PlanIndex()


class TestInsertRemove:
    def test_insert_and_len(self, index):
        index.insert(make_plan([1, 1]), resolution=0)
        assert len(index) == 1

    def test_duplicate_insert_rejected(self, index):
        plan = make_plan([1, 1])
        index.insert(plan, 0)
        with pytest.raises(ValueError):
            index.insert(plan, 1)

    def test_negative_resolution_rejected(self, index):
        with pytest.raises(ValueError):
            index.insert(make_plan([1, 1]), -1)

    def test_remove(self, index):
        plan = make_plan([1, 1])
        index.insert(plan, 0)
        index.remove(plan)
        assert len(index) == 0
        assert plan not in index

    def test_remove_unknown_plan_raises(self, index):
        with pytest.raises(KeyError):
            index.remove(make_plan([1, 1]))

    def test_discard_is_idempotent(self, index):
        plan = make_plan([1, 1])
        index.insert(plan, 0)
        assert index.discard(plan)
        assert not index.discard(plan)

    def test_clear(self, index):
        index.insert(make_plan([1, 1]), 0)
        index.clear()
        assert len(index) == 0

    def test_invalid_cell_base(self):
        with pytest.raises(ValueError):
            PlanIndex(cell_base=1.0)


class TestLookups:
    def test_contains_and_resolution_of(self, index):
        plan = make_plan([1, 1])
        index.insert(plan, 2)
        assert plan in index
        assert index.resolution_of(plan) == 2

    def test_resolution_of_unknown_plan(self, index):
        with pytest.raises(KeyError):
            index.resolution_of(make_plan([1, 1]))

    def test_all_plans_and_entries(self, index):
        plans = [make_plan([i + 1, 1]) for i in range(3)]
        for level, plan in enumerate(plans):
            index.insert(plan, level)
        assert {p.plan_id for p in index.all_plans()} == {p.plan_id for p in plans}
        entries = index.all_entries()
        assert {(e.plan.plan_id, e.resolution) for e in entries} == {
            (plan.plan_id, level) for level, plan in enumerate(plans)
        }

    def test_count_at_resolution(self, index):
        index.insert(make_plan([1, 1]), 0)
        index.insert(make_plan([2, 2]), 0)
        index.insert(make_plan([3, 3]), 1)
        assert index.count_at_resolution(0) == 2
        assert index.count_at_resolution(1) == 1
        assert index.count_at_resolution(5) == 0


class TestRangeQueries:
    def test_retrieve_respects_resolution_range(self, index):
        low = make_plan([1, 1])
        high = make_plan([1, 1])
        index.insert(low, 0)
        index.insert(high, 3)
        unbounded = CostVector.infinite(2)
        assert {p.plan_id for p in index.retrieve(unbounded, 0)} == {low.plan_id}
        assert {p.plan_id for p in index.retrieve(unbounded, 3)} == {low.plan_id, high.plan_id}
        assert index.retrieve(unbounded, 2, min_resolution=1) == []

    def test_retrieve_respects_bounds(self, index):
        cheap = make_plan([1, 1])
        pricey = make_plan([100, 1])
        index.insert(cheap, 0)
        index.insert(pricey, 0)
        within = index.retrieve(CostVector([10, 10]), 0)
        assert {p.plan_id for p in within} == {cheap.plan_id}

    def test_retrieve_with_inverted_range_is_empty(self, index):
        index.insert(make_plan([1, 1]), 0)
        assert index.retrieve(CostVector.infinite(2), 0, min_resolution=2) == []

    def test_retrieve_entries_reports_levels(self, index):
        plan = make_plan([1, 1])
        index.insert(plan, 2)
        entries = index.retrieve_entries(CostVector.infinite(2), 4)
        assert entries[0].resolution == 2

    def test_retrieve_many_plans_across_buckets(self, index):
        plans = [make_plan([float(2 ** i), 1.0]) for i in range(10)]
        for plan in plans:
            index.insert(plan, 0)
        bounds = CostVector([40.0, 10.0])
        retrieved = index.retrieve(bounds, 0)
        expected = [p for p in plans if p.cost[0] <= 40.0]
        assert {p.plan_id for p in retrieved} == {p.plan_id for p in expected}


class TestFindDominating:
    def test_finds_witness_within_bounds_and_resolution(self, index):
        witness = make_plan([1, 1])
        index.insert(witness, 0)
        found = index.find_dominating(
            CostVector([2, 2]), CostVector.infinite(2), max_resolution=0
        )
        assert found is witness

    def test_ignores_plans_above_resolution(self, index):
        index.insert(make_plan([1, 1]), 2)
        assert (
            index.find_dominating(CostVector([2, 2]), CostVector.infinite(2), 1) is None
        )

    def test_ignores_plans_exceeding_bounds(self, index):
        index.insert(make_plan([5, 5]), 0)
        found = index.find_dominating(CostVector([6, 6]), CostVector([4, 4]), 0)
        assert found is None

    def test_ignores_non_dominating_plans(self, index):
        index.insert(make_plan([3, 1]), 0)
        assert index.find_dominating(CostVector([2, 2]), CostVector.infinite(2), 0) is None

    def test_order_filter_is_applied(self, index):
        ordered = make_plan([1, 1], order="sorted:a")
        index.insert(ordered, 0)
        # Order id 0 is "no interesting order": the ordered plan must not count.
        found = index.find_dominating_id(
            CostVector([2, 2]), CostVector.infinite(2), 0, order_id=0
        )
        assert found == 0

    def test_returns_the_plan_behind_find_dominating_id(self, index):
        plans = [make_plan([float(i), float(10 - i)]) for i in range(1, 10)]
        for level, plan in enumerate(plans):
            index.insert(plan, level % 3)
        by_id = {plan.plan_id: plan for plan in plans}
        unbounded = CostVector.infinite(2)
        outcomes = set()
        for first in range(0, 11):
            for second in range(0, 11):
                for max_resolution in range(3):
                    target = CostVector([float(first), float(second)])
                    plan_id = index.find_dominating_id(target, unbounded, max_resolution)
                    found = index.find_dominating(target, unbounded, max_resolution)
                    assert found is (by_id[plan_id] if plan_id else None)
                    outcomes.add(bool(plan_id))
        assert outcomes == {True, False}

    def test_index_without_plans_has_no_witness(self, index):
        target, unbounded = CostVector([2, 2]), CostVector.infinite(2)
        assert index.find_dominating(target, unbounded, 0) is None
        plan = make_plan([1, 1])
        index.insert(plan, 0)
        index.remove(plan)
        assert index.find_dominating(target, unbounded, 0) is None

    def test_mismatched_dimensionality_is_rejected(self, index):
        index.insert(make_plan([1, 1]), 0)
        with pytest.raises(ValueError, match="dimensionality"):
            index.find_dominating(CostVector([2, 2, 2]), CostVector.infinite(2), 0)

    def test_bucket_pruning_does_not_miss_witnesses(self, index):
        # Plans with very different first-component magnitudes end up in
        # different buckets; the dominating one must still be found.
        cheap = make_plan([0.5, 10.0])
        index.insert(cheap, 0)
        index.insert(make_plan([900.0, 1.0]), 0)
        found = index.find_dominating(CostVector([1.0, 20.0]), CostVector.infinite(2), 0)
        assert found is cheap
