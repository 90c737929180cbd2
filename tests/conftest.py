"""Shared fixtures for the test suite.

Most tests run against a small, fully deterministic synthetic schema (three
tables joined in a chain) so that plan counts and cost relationships are stable
and fast to compute; workload- and benchmark-level tests use the TPC-H blocks.
"""

from __future__ import annotations

import pytest

from repro.catalog.cardinality import CardinalityEstimator, JoinGraph, JoinPredicate
from repro.catalog.schema import Column, ForeignKey, Schema, Table
from repro.catalog.statistics import StatisticsCatalog
from repro.core.resolution import ResolutionSchedule
from repro.costs.metrics import cloud_metric_set, paper_metric_set
from repro.costs.model import CostModelConfig, MultiObjectiveCostModel
from repro.costs.vector import CostVector
from repro.plans.arena import KIND_JOIN
from repro.plans.factory import PlanFactory
from repro.plans.operators import JoinOperator, OperatorRegistry, ScanOperator
from repro.plans.query import Query


def build_small_schema() -> Schema:
    """Three tables joined in a chain: customers -> orders -> items."""
    customers = Table(
        "customers",
        [
            Column("id", "int", distinct_values=1_000),
            Column("segment", "text", distinct_values=5),
        ],
        row_count=1_000,
    )
    orders = Table(
        "orders",
        [
            Column("id", "int", distinct_values=20_000),
            Column("customer_id", "int", distinct_values=1_000),
        ],
        row_count=20_000,
    )
    items = Table(
        "items",
        [
            Column("id", "int", distinct_values=100_000),
            Column("order_id", "int", distinct_values=20_000),
        ],
        row_count=100_000,
    )
    return Schema(
        "shop",
        [customers, orders, items],
        [
            ForeignKey("orders", "customer_id", "customers", "id"),
            ForeignKey("items", "order_id", "orders", "id"),
        ],
    )


def build_chain_query(tables=("customers", "orders", "items")) -> Query:
    """A chain query over the small schema (or a prefix of it)."""
    predicates = []
    if "orders" in tables and "customers" in tables:
        predicates.append(JoinPredicate("orders", "customer_id", "customers", "id"))
    if "items" in tables and "orders" in tables:
        predicates.append(JoinPredicate("items", "order_id", "orders", "id"))
    return Query(
        "shop_chain_" + "_".join(sorted(tables)),
        JoinGraph(tables=list(tables), predicates=predicates),
    )


def build_factory(
    query: Query,
    schema: Schema = None,
    metric_set=None,
    registry: OperatorRegistry = None,
) -> PlanFactory:
    """Plan factory over the small schema with a compact operator registry."""
    schema = schema or build_small_schema()
    metric_set = metric_set or paper_metric_set()
    registry = registry or OperatorRegistry(
        parallelism_levels=(1, 2),
        sampling_rates=(0.1,),
        small_table_rows=500,
        join_algorithms=("hash_join", "nested_loop_join"),
    )
    statistics = StatisticsCatalog(schema)
    estimator = CardinalityEstimator(statistics, query.join_graph)
    cost_model = MultiObjectiveCostModel(metric_set, CostModelConfig())
    return PlanFactory(estimator, cost_model, registry)


def scan_plan(arena, cost, table="t", order=None, operator=None):
    """The handle of a scan allocated in ``arena`` (a sequential scan unless
    ``operator`` says otherwise)."""
    operator = operator or ScanOperator("seq_scan")
    return arena.plan(arena.allocate_scan(table, operator, CostVector(cost), order))


def join_plan(left, right, cost, algorithm="hash_join", order=None):
    """The handle of a join of two handles, allocated in their arena."""
    arena = left.arena
    return arena.plan(
        arena.allocate_join(
            left.plan_id, right.plan_id, JoinOperator(algorithm), CostVector(cost), order
        )
    )


def insert_plan(index, plan, resolution):
    """Register a plan handle in a plan index by its arena id."""
    index.insert_id(plan.plan_id, resolution, plan.arena)


def arena_joins(arena):
    """``(left id, right id, operator)`` of every join plan in the arena, in
    id order."""
    return [
        (arena.left_of(plan_id), arena.right_of(plan_id), arena.operator_of(plan_id))
        for plan_id in range(1, len(arena) + 1)
        if arena.kind_of(plan_id) == KIND_JOIN
    ]


def assert_each_join_built_once(factory):
    """Lemma 6: the factory built exactly the arena's joins, and no
    ``(left, right, operator)`` combination twice."""
    joins = arena_joins(factory.arena)
    assert factory.counters.join_plans_built == len(joins)
    assert len(set(joins)) == len(joins)


def entries_by_level(index):
    """Registered plan ids per resolution level, in registration order.

    The order in which levels were created is not compared: nothing reads
    it, while the optimizer reads every level in ascending order.
    """
    levels = {}
    for plan_id in index.all_ids():
        levels.setdefault(index.resolution_of_id(plan_id), []).append(plan_id)
    return levels


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def small_schema() -> Schema:
    return build_small_schema()


@pytest.fixture
def small_statistics(small_schema) -> StatisticsCatalog:
    return StatisticsCatalog(small_schema)


@pytest.fixture
def chain_query() -> Query:
    return build_chain_query()


@pytest.fixture
def two_table_query() -> Query:
    return build_chain_query(("customers", "orders"))


@pytest.fixture
def paper_metrics():
    return paper_metric_set()


@pytest.fixture
def cloud_metrics():
    return cloud_metric_set()


@pytest.fixture
def chain_factory(chain_query) -> PlanFactory:
    return build_factory(chain_query)


@pytest.fixture
def two_table_factory(two_table_query) -> PlanFactory:
    return build_factory(two_table_query)


@pytest.fixture
def schedule_three_levels() -> ResolutionSchedule:
    return ResolutionSchedule(levels=3, target_precision=1.05, precision_step=0.3)
