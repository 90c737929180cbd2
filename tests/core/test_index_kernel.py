"""Kernel-path and edge-case tests for :mod:`repro.core.index`.

Covers the satellite checklist items of the batched-kernel refactor: removal
of the last plan in a bucket, retrieval with infinite bounds, the
infinite-first-component bucket sentinel (and how pruning sees it), and
property-based equivalence of the kernel-backed retrieval against a scalar
brute-force oracle on every available backend.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import kernel
from repro.core.index import INFINITE_BUCKET, PlanIndex
from repro.core.pruning import PruneOutcome, prune
from repro.costs.dominance import dominates
from repro.costs.vector import CostVector
from repro.plans.arena import PlanArena

from tests.conftest import insert_plan, scan_plan

try:
    import numpy  # noqa: F401

    BACKENDS = ["python", "numpy"]
except ImportError:  # pragma: no cover - depends on environment
    BACKENDS = ["python"]

INF = float("inf")


@pytest.fixture
def make_plan():
    """Scan handles in an arena of the test's own."""
    arena = PlanArena(2)
    return lambda cost, order=None: scan_plan(arena, cost, order=order)


@pytest.fixture(params=BACKENDS)
def backend(request):
    with kernel.use_backend(request.param):
        yield request.param


class TestBucketEdgeCases:
    def test_removing_last_plan_in_bucket_keeps_index_consistent(self, backend, make_plan):
        index = PlanIndex()
        # Same bucket (similar first component), then empty it entirely.
        lone = make_plan([100.0, 1.0])
        other = make_plan([1.0, 1.0])
        insert_plan(index, lone, 0)
        insert_plan(index, other, 0)
        index.remove_id(lone.plan_id)
        assert len(index) == 1
        assert not index.contains_id(lone.plan_id)
        assert index.retrieve_ids(CostVector.infinite(2), 0) == [other.plan_id]
        # Re-inserting into the emptied bucket works.
        insert_plan(index, make_plan([101.0, 2.0]), 0)
        assert len(index) == 2

    def test_removals_trigger_compaction_without_losing_plans(self, backend, make_plan):
        index = PlanIndex()
        plans = [make_plan([10.0 + i * 0.01, float(i)]) for i in range(20)]
        for plan in plans:
            insert_plan(index, plan, 0)
        for plan in plans[:15]:
            index.remove_id(plan.plan_id)
        survivors = {p.plan_id for p in plans[15:]}
        assert set(index.all_ids()) == survivors
        retrieved = index.retrieve_ids(CostVector.infinite(2), 0)
        assert retrieved == [p.plan_id for p in plans[15:]]
        # Locations stay valid after compaction: removal still works.
        index.remove_id(plans[15].plan_id)
        assert len(index) == 4

    def test_retrieve_with_infinite_bounds_returns_everything_in_range(self, backend, make_plan):
        index = PlanIndex()
        plans = [make_plan([float(2**i), 1.0]) for i in range(8)]
        for resolution, plan in enumerate(plans):
            insert_plan(index, plan, resolution % 3)
        unbounded = CostVector.infinite(2)
        assert set(index.retrieve_ids(unbounded, 2)) == {p.plan_id for p in plans}
        assert set(index.retrieve_ids(unbounded, 0)) == {
            p.plan_id for r, p in enumerate(plans) if r % 3 == 0
        }


def prune_one(result_index, plan, bounds=CostVector.infinite(2)):
    """Prune one plan against ``result_index`` at resolution 0 (alpha 1)."""
    return prune(result_index, PlanIndex(), bounds, 0, 1.0, 1, plan)


class TestInfiniteCostSentinel:
    def test_infinite_first_component_maps_to_top_bucket(self):
        index = PlanIndex()
        assert index._bucket_of(CostVector([INF, 1.0])) == INFINITE_BUCKET
        assert INFINITE_BUCKET > index._bucket_of(CostVector([1e300, 1.0]))

    def test_infinite_cost_plan_is_not_retrievable_under_finite_bounds(self, backend, make_plan):
        index = PlanIndex()
        unbounded_plan = make_plan([INF, 1.0])
        cheap = make_plan([1.0, 1.0])
        insert_plan(index, unbounded_plan, 0)
        insert_plan(index, cheap, 0)
        retrieved = index.retrieve_ids(CostVector([10.0, 10.0]), 0)
        assert retrieved == [cheap.plan_id]

    def test_infinite_cost_plan_is_retrievable_under_infinite_bounds(self, backend, make_plan):
        index = PlanIndex()
        unbounded_plan = make_plan([INF, 1.0])
        insert_plan(index, unbounded_plan, 0)
        retrieved = index.retrieve_ids(CostVector.infinite(2), 0)
        assert retrieved == [unbounded_plan.plan_id]

    def test_infinite_cost_plan_can_witness_infinite_targets(self, backend, make_plan):
        index = PlanIndex()
        insert_plan(index, make_plan([INF, 1.0]), 0)
        # It approximates a plan with an infinite first component ...
        assert prune_one(index, make_plan([INF, 2.0])) is (
            PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION
        )
        # ... but never a finite one.
        assert prune_one(index, make_plan([5.0, 2.0])) is PruneOutcome.INSERTED

    def test_infinite_bucket_does_not_shadow_finite_buckets(self, backend, make_plan):
        # Regression: the old sentinel (-1) sorted the unbounded bucket below
        # every finite bucket, making it look like the cheapest cell.  The
        # infinite bucket must sort above all finite cells so bucket skipping
        # can prune it under finite bounds without any call-site special case.
        index = PlanIndex()
        insert_plan(index, make_plan([INF, 1.0]), 0)
        insert_plan(index, make_plan([5.0, 5.0]), 0)
        assert prune_one(
            index, make_plan([6.0, 6.0]), CostVector([7.0, 7.0])
        ) is PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION


costs = st.tuples(
    st.one_of(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
        st.just(INF),
    ),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)
entries = st.lists(
    st.tuples(costs, st.integers(min_value=0, max_value=3)), min_size=0, max_size=40
)
bounds_values = st.one_of(
    costs.map(CostVector),
    st.just(CostVector.infinite(2)),
)


class TestScalarKernelEquivalence:
    """The kernel-backed index must agree with a scalar dominates() loop."""

    @settings(max_examples=120)
    @given(entries, bounds_values, st.integers(min_value=0, max_value=3), st.data())
    def test_retrieval_matches_scalar_oracle_on_every_backend(
        self, entry_list, bounds, max_resolution, data
    ):
        results = {}
        for name in BACKENDS:
            with kernel.use_backend(name):
                index = PlanIndex()
                arena = PlanArena(2)
                plans = []
                for cost, resolution in entry_list:
                    plan = scan_plan(arena, cost)
                    insert_plan(index, plan, resolution)
                    plans.append((plan, resolution))
                retrieved = index.retrieve_ids(bounds, max_resolution)
                expected = {
                    plan.plan_id
                    for plan, resolution in plans
                    if resolution <= max_resolution and dominates(plan.cost, bounds)
                }
                # Same plans as the scalar oracle (retrieval enumerates
                # bucket by bucket, so only membership is order-free).
                assert set(retrieved) == expected
                assert len(retrieved) == len(expected)
                cost_of = {plan.plan_id: tuple(plan.cost) for plan, _ in plans}
                results[name] = [cost_of[plan_id] for plan_id in retrieved]
        # Identical cost sequences across backends.
        assert len({tuple(seq) for seq in results.values()}) <= 1
