"""Unit tests for :mod:`repro.plans.plan`."""

import pytest

from repro.plans.arena import PlanArena

from tests.conftest import join_plan, scan_plan


@pytest.fixture
def scan():
    """Scan handles in an arena of the test's own."""
    arena = PlanArena(2)
    return lambda table, cost=(1.0, 1.0): scan_plan(arena, cost, table=table)


def join(left, right, cost=(2.0, 2.0), algorithm="hash_join"):
    return join_plan(left, right, cost, algorithm)


class TestScanPlan:
    def test_tables_and_type(self, scan):
        plan = scan("orders")
        assert plan.tables == frozenset({"orders"})
        assert plan.is_scan() and not plan.is_join()

    def test_leaves_and_depth(self, scan):
        plan = scan("orders")
        assert plan.leaves() == [plan]
        assert plan.depth() == 1

    def test_walk_yields_self(self, scan):
        plan = scan("orders")
        assert list(plan.walk()) == [plan]

    def test_render_mentions_table(self, scan):
        assert "orders" in scan("orders").render()

    def test_plan_ids_are_unique(self, scan):
        assert scan("a").plan_id != scan("a").plan_id


class TestJoinPlan:
    def test_tables_are_union_of_children(self, scan):
        plan = join(scan("a"), scan("b"))
        assert plan.tables == frozenset({"a", "b"})
        assert plan.is_join()

    def test_overlapping_operands_rejected(self, scan):
        with pytest.raises(ValueError):
            join(scan("a"), scan("a"))

    def test_leaves_in_order(self, scan):
        plan = join(join(scan("a"), scan("b")), scan("c"))
        assert [leaf.table for leaf in plan.leaves()] == ["a", "b", "c"]

    def test_depth(self, scan):
        plan = join(join(scan("a"), scan("b")), scan("c"))
        assert plan.depth() == 3

    def test_walk_is_preorder(self, scan):
        left = join(scan("a"), scan("b"))
        plan = join(left, scan("c"))
        walked = list(plan.walk())
        assert walked[0] is plan
        assert walked[1] is left
        assert len(walked) == 5

    def test_render_nests_operands(self, scan):
        rendered = join(scan("a"), scan("b")).render()
        assert rendered.startswith("(") and "HJ" in rendered

    def test_table_count(self, scan):
        assert join(scan("a"), scan("b")).table_count == 2


class TestPlanValidation:
    def test_interesting_order_defaults_to_none(self, scan):
        assert scan("a").interesting_order is None
