"""Unit tests for :mod:`repro.plans.factory`."""

import pytest

from repro.plans.operators import JoinOperator
from repro.plans.plan import JoinPlan, ScanPlan


class TestScanPlans:
    def test_scan_plans_cover_all_registry_variants(self, two_table_factory):
        plans = two_table_factory.scan_plans("orders")
        rows = two_table_factory.estimator.base_cardinality("orders")
        expected = len(two_table_factory.operators.scan_operators(rows))
        assert len(plans) == expected
        assert all(isinstance(plan, ScanPlan) for plan in plans)

    def test_scan_plan_costs_differ_across_variants(self, two_table_factory):
        plans = two_table_factory.scan_plans("orders")
        costs = {plan.cost for plan in plans}
        assert len(costs) > 1

    def test_scan_plans_are_handles_of_the_given_arena(self, two_table_factory):
        from repro.plans.arena import PlanArena

        scratch = PlanArena(two_table_factory.metric_set.dimensions)
        plans = two_table_factory.scan_plans("orders", arena=scratch)
        assert [plan.plan_id for plan in plans] == list(range(1, len(plans) + 1))
        assert all(scratch.plan(plan.plan_id) is plan for plan in plans)
        assert len(two_table_factory.arena) == 0

    def test_counters_track_scans(self, two_table_factory):
        before = two_table_factory.counters.scan_plans_built
        two_table_factory.scan_plans("orders")
        assert two_table_factory.counters.scan_plans_built > before


class TestJoinPlans:
    def test_join_plan_combines_tables_and_costs(self, two_table_factory):
        left = two_table_factory.scan_plans("customers")[0]
        right = two_table_factory.scan_plans("orders")[0]
        plan = two_table_factory.join_plan(left, right, JoinOperator("hash_join"))
        assert isinstance(plan, JoinPlan)
        assert plan.tables == frozenset({"customers", "orders"})
        for index in range(len(plan.cost)):
            assert plan.cost[index] >= left.cost[index] - 1e-12
            assert plan.cost[index] >= right.cost[index] - 1e-12

    def test_join_plan_is_the_canonical_handle_of_a_new_arena_id(
        self, two_table_factory
    ):
        left = two_table_factory.scan_plans("customers")[0]
        right = two_table_factory.scan_plans("orders")[0]
        operators = two_table_factory.join_operators()
        plans = [
            two_table_factory.join_plan(left, right, operator)
            for operator in operators
        ]
        arena = two_table_factory.arena
        assert len({plan.plan_id for plan in plans}) == len(operators)
        for plan, operator in zip(plans, operators):
            assert arena.plan(plan.plan_id) is plan
            assert plan.operator == operator
            assert plan.left is left and plan.right is right

    def test_join_plan_rejects_operands_of_two_arenas(self, two_table_factory):
        from repro.plans.arena import PlanArena

        left = two_table_factory.scan_plans("customers")[0]
        right = two_table_factory.scan_plans("orders", arena=PlanArena(3))[0]
        with pytest.raises(ValueError):
            two_table_factory.join_plan(left, right, JoinOperator("hash_join"))

    def test_merge_join_sets_interesting_order(self, chain_query):
        from tests.conftest import build_factory
        from repro.plans.operators import OperatorRegistry

        factory = build_factory(
            chain_query,
            registry=OperatorRegistry(
                parallelism_levels=(1,),
                sampling_rates=(0.5,),
                join_algorithms=("hash_join", "sort_merge_join"),
            ),
        )
        left = factory.scan_plans("customers")[0]
        right = factory.scan_plans("orders")[0]
        merge = factory.join_plan(left, right, JoinOperator("sort_merge_join"))
        hash_join = factory.join_plan(left, right, JoinOperator("hash_join"))
        assert merge.interesting_order is not None
        assert hash_join.interesting_order is None

    def test_counters_track_joins(self, two_table_factory):
        left = two_table_factory.scan_plans("customers")[0]
        right = two_table_factory.scan_plans("orders")[0]
        before = two_table_factory.counters.join_plans_built
        operators = two_table_factory.join_operators()
        for operator in operators:
            two_table_factory.join_plan(left, right, operator)
        assert two_table_factory.counters.join_plans_built == before + len(operators)

    def test_counter_snapshot_is_independent(self, two_table_factory):
        snapshot = two_table_factory.counters.snapshot()
        two_table_factory.scan_plans("orders")
        assert two_table_factory.counters.scan_plans_built > snapshot.scan_plans_built

    def test_total_plans_built(self, two_table_factory):
        two_table_factory.scan_plans("orders")
        counters = two_table_factory.counters
        assert counters.total_plans_built == (
            counters.scan_plans_built + counters.join_plans_built
        )
