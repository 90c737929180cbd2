"""Unit tests for :mod:`repro.plans.explain`."""

import pytest

from repro.costs.metrics import paper_metric_set
from repro.costs.vector import CostVector
from repro.plans.explain import (
    compare_plans,
    explain_plan,
    format_frontier_summary,
    frontier_summary,
)
from repro.plans.arena import PlanArena

from tests.conftest import join_plan, scan_plan


@pytest.fixture
def metric_set():
    return paper_metric_set()


@pytest.fixture
def scan(metric_set):
    """Scan handles in an arena of the test's own."""
    arena = PlanArena(metric_set.dimensions)
    return lambda table, cost: scan_plan(arena, cost, table=table)


def join(left, right, cost, order=None):
    return join_plan(left, right, cost, order=order)


@pytest.fixture
def plan(scan):
    a = scan("customers", [1, 1, 0])
    b = scan("orders", [2, 1, 0])
    return join(a, b, [4, 1, 0])


class TestExplainPlan:
    def test_lists_every_node(self, plan, metric_set):
        text = explain_plan(plan, metric_set)
        assert "customers" in text and "orders" in text
        assert len(text.splitlines()) == 3

    def test_children_are_indented(self, plan, metric_set):
        lines = explain_plan(plan, metric_set).splitlines()
        assert not lines[0].startswith(" ")
        assert lines[1].startswith("  ")
        assert lines[2].startswith("  ")

    def test_costs_are_annotated(self, plan, metric_set):
        text = explain_plan(plan, metric_set)
        assert "execution_time=4" in text

    def test_interesting_order_is_shown(self, metric_set, scan):
        a = scan("a", [1, 1, 0])
        b = scan("b", [1, 1, 0])
        merged = join(a, b, [3, 1, 0], order="sorted:a")
        assert "order=sorted:a" in explain_plan(merged, metric_set)

    def test_scan_only_plan(self, metric_set, scan):
        text = explain_plan(scan("customers", [1, 1, 0]), metric_set)
        assert len(text.splitlines()) == 1


class TestComparePlans:
    def test_ratios_per_metric(self, metric_set, scan):
        left = scan("a", [2, 1, 0])
        right = scan("b", [1, 2, 0])
        comparison = compare_plans(left, right, metric_set)
        assert comparison["execution_time"]["ratio"] == pytest.approx(2.0)
        assert comparison["reserved_cores"]["ratio"] == pytest.approx(0.5)

    def test_zero_denominator(self, metric_set, scan):
        left = scan("a", [1, 1, 0.5])
        right = scan("b", [1, 1, 0])
        comparison = compare_plans(left, right, metric_set)
        assert comparison["precision_loss"]["ratio"] == float("inf")

    def test_zero_over_zero_is_one(self, metric_set, scan):
        left = scan("a", [1, 1, 0])
        right = scan("b", [1, 1, 0])
        assert compare_plans(left, right, metric_set)["precision_loss"]["ratio"] == 1.0


class TestFrontierSummary:
    def test_min_max_spread(self, metric_set):
        costs = [CostVector([1, 1, 0]), CostVector([4, 2, 0.5])]
        summary = frontier_summary(costs, metric_set)
        assert summary["execution_time"]["min"] == 1
        assert summary["execution_time"]["max"] == 4
        assert summary["execution_time"]["spread"] == pytest.approx(4.0)
        assert summary["_tradeoffs"]["stored"] == 2

    def test_non_dominated_count(self, metric_set):
        costs = [CostVector([1, 1, 0]), CostVector([2, 2, 0.5]), CostVector([0.5, 3, 0])]
        summary = frontier_summary(costs, metric_set)
        assert summary["_tradeoffs"]["non_dominated"] == 2

    def test_empty_frontier(self, metric_set):
        summary = frontier_summary([], metric_set)
        assert summary["_tradeoffs"]["stored"] == 0

    def test_zero_minimum_gives_infinite_spread(self, metric_set):
        costs = [CostVector([1, 1, 0]), CostVector([2, 2, 0.4])]
        summary = frontier_summary(costs, metric_set)
        assert summary["precision_loss"]["spread"] == float("inf")

    def test_formatted_summary(self, metric_set):
        costs = [CostVector([1, 1, 0]), CostVector([4, 2, 0.5])]
        text = format_frontier_summary(costs, metric_set)
        assert "2 stored tradeoffs" in text
        assert "execution_time" in text
