"""Unit tests for :mod:`repro.core.index`."""

import pytest

from repro.core.index import PlanIndex
from repro.costs.vector import CostVector
from repro.plans.arena import PlanArena

from tests.conftest import entries_by_level, insert_plan, scan_plan


@pytest.fixture
def make_plan():
    """Scan handles in an arena of the test's own."""
    arena = PlanArena(2)
    return lambda cost, order=None: scan_plan(arena, cost, order=order)


@pytest.fixture
def index():
    return PlanIndex()


class TestInsertRemove:
    def test_insert_and_len(self, index, make_plan):
        insert_plan(index, make_plan([1, 1]), resolution=0)
        assert len(index) == 1

    def test_duplicate_insert_rejected(self, index, make_plan):
        plan = make_plan([1, 1])
        insert_plan(index, plan, 0)
        with pytest.raises(ValueError):
            insert_plan(index, plan, 1)

    def test_negative_resolution_rejected(self, index, make_plan):
        with pytest.raises(ValueError):
            insert_plan(index, make_plan([1, 1]), -1)

    def test_remove(self, index, make_plan):
        plan = make_plan([1, 1])
        insert_plan(index, plan, 0)
        index.remove_id(plan.plan_id)
        assert len(index) == 0
        assert not index.contains_id(plan.plan_id)

    def test_remove_unknown_plan_raises(self, index, make_plan):
        with pytest.raises(KeyError):
            index.remove_id(make_plan([1, 1]).plan_id)

    def test_discard_is_idempotent(self, index, make_plan):
        plan = make_plan([1, 1])
        insert_plan(index, plan, 0)
        index.remove_id(plan.plan_id)
        # A second removal finds nothing and leaves the index as it was.
        with pytest.raises(KeyError):
            index.remove_id(plan.plan_id)
        assert len(index) == 0 and not index.contains_id(plan.plan_id)

    def test_clear(self, index, make_plan):
        insert_plan(index, make_plan([1, 1]), 0)
        index.clear()
        assert len(index) == 0

    def test_invalid_cell_base(self):
        with pytest.raises(ValueError):
            PlanIndex(cell_base=1.0)


class TestLookups:
    def test_contains_and_resolution_of(self, index, make_plan):
        plan = make_plan([1, 1])
        insert_plan(index, plan, 2)
        assert index.contains_id(plan.plan_id)
        assert index.resolution_of_id(plan.plan_id) == 2

    def test_resolution_of_unknown_plan(self, index, make_plan):
        with pytest.raises(KeyError):
            index.resolution_of_id(make_plan([1, 1]).plan_id)

    def test_all_plans_and_entries(self, index, make_plan):
        plans = [make_plan([i + 1, 1]) for i in range(3)]
        for level, plan in enumerate(plans):
            insert_plan(index, plan, level)
        assert set(index.all_ids()) == {p.plan_id for p in plans}
        assert entries_by_level(index) == {
            level: [plan.plan_id] for level, plan in enumerate(plans)
        }

    def test_count_at_resolution(self, index, make_plan):
        insert_plan(index, make_plan([1, 1]), 0)
        insert_plan(index, make_plan([2, 2]), 0)
        insert_plan(index, make_plan([3, 3]), 1)
        assert index.count_at_resolution(0) == 2
        assert index.count_at_resolution(1) == 1
        assert index.count_at_resolution(5) == 0


class TestRangeQueries:
    def test_retrieve_respects_resolution_range(self, index, make_plan):
        low = make_plan([1, 1])
        high = make_plan([1, 1])
        insert_plan(index, low, 0)
        insert_plan(index, high, 3)
        unbounded = CostVector.infinite(2)
        assert set(index.retrieve_ids(unbounded, 0)) == {low.plan_id}
        assert set(index.retrieve_ids(unbounded, 3)) == {low.plan_id, high.plan_id}
        assert index.retrieve_ids(unbounded, 2, min_resolution=1) == []

    def test_retrieve_respects_bounds(self, index, make_plan):
        cheap = make_plan([1, 1])
        pricey = make_plan([100, 1])
        insert_plan(index, cheap, 0)
        insert_plan(index, pricey, 0)
        assert index.retrieve_ids(CostVector([10, 10]), 0) == [cheap.plan_id]

    def test_retrieve_with_inverted_range_is_empty(self, index, make_plan):
        insert_plan(index, make_plan([1, 1]), 0)
        assert index.retrieve_ids(CostVector.infinite(2), 0, min_resolution=2) == []

    def test_retrieved_ids_report_their_levels(self, index, make_plan):
        plan = make_plan([1, 1])
        insert_plan(index, plan, 2)
        (retrieved,) = index.retrieve_ids(CostVector.infinite(2), 4)
        assert index.resolution_of_id(retrieved) == 2

    def test_retrieve_many_plans_across_buckets(self, index, make_plan):
        plans = [make_plan([float(2 ** i), 1.0]) for i in range(10)]
        for plan in plans:
            insert_plan(index, plan, 0)
        bounds = CostVector([40.0, 10.0])
        retrieved = index.retrieve_ids(bounds, 0)
        expected = [p for p in plans if p.cost[0] <= 40.0]
        assert set(retrieved) == {p.plan_id for p in expected}
