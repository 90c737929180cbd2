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
