"""Tests for :mod:`repro.core.fresh` and the ``IsFresh`` invocation history."""

import statistics

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import flags
from repro.api import OptimizeRequest, resolve_request
from repro.core.fresh import delta_pairs, delta_split, fresh_pairs
from repro.core.optimizer import IncrementalOptimizer
from repro.costs.vector import CostVector
from repro.plans.query import plan_order
from tests.conftest import arena_joins


def pairs(columns):
    lefts, rights = columns
    assert len(lefts) == len(rights)
    return list(zip(lefts, rights))


class TestDeltaPairs:
    def test_empty_operands_yield_nothing(self):
        assert pairs(delta_pairs(([], []), ([2], [3]))) == []
        assert pairs(delta_pairs(([1], [4]), ([], []))) == []

    def test_delta_sets_skip_old_old_pairs(self):
        old_left, new_left, old_right, new_right = 1, 2, 3, 4
        left = delta_split([old_left, new_left], [new_left])
        right = delta_split([old_right, new_right], [new_right])
        # Δ-new × old, old × Δ-new, Δ-new × Δ-new; never old × old.
        assert pairs(delta_pairs(left, right)) == [
            (new_left, old_right),
            (old_left, new_right),
            (new_left, new_right),
        ]

    def test_each_part_is_pair_major(self):
        left = delta_split([1, 2, 3, 4], [2, 4])
        right = delta_split([5, 6, 7], [7])
        assert pairs(delta_pairs(left, right)) == [
            (2, 5), (2, 6), (4, 5), (4, 6),
            (1, 7), (3, 7),
            (2, 7), (4, 7),
        ]

    def test_empty_deltas_yield_nothing(self):
        assert pairs(delta_pairs(delta_split([1], []), delta_split([2], []))) == []

    def test_full_delta_enumerates_everything(self):
        left, right = [1, 2], [3]
        columns = delta_pairs(delta_split(left, left), delta_split(right, right))
        assert pairs(columns) == [(1, 3), (2, 3)]

    def test_pairs_are_unique(self):
        left, right = [1, 2, 3], [4, 5]
        columns = delta_pairs(delta_split(left, left[:1]), delta_split(right, right[:1]))
        assert len(pairs(columns)) == len(set(pairs(columns))) == 4

    def test_split_keeps_retrieval_order(self):
        # The Δ-set lists plans in insertion order; the split follows the
        # retrieval order and drops inserted plans outside the retrieval.
        assert delta_split([5, 3, 9, 1], [1, 8, 3]) == ([5, 9], [3, 1])


class TestFreshPairs:
    def test_zero_masks_enumerate_all_pairs(self):
        columns = fresh_pairs([1, 2], [0, 0], [3, 4, 5], [0, 0, 0])
        assert pairs(columns) == [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]

    def test_a_shared_box_makes_a_pair_stale(self):
        # Plans 1 and 3 were both held by box 0, plans 2 and 4 by box 1.
        columns = fresh_pairs([1, 2], [0b01, 0b10], [3, 4], [0b01, 0b10])
        assert pairs(columns) == [(1, 4), (2, 3)]

    def test_a_plan_of_no_box_pairs_with_everything(self):
        columns = fresh_pairs([1, 2], [0, 0b11], [3, 4], [0b01, 0])
        assert pairs(columns) == [(1, 3), (1, 4), (2, 4)]

    def test_left_ids_with_one_mask_share_their_partners(self):
        columns = fresh_pairs([1, 2, 3], [0b1, 0b1, 0b1], [4, 5, 6], [0b1, 0, 0b10])
        assert pairs(columns) == [(1, 5), (1, 6), (2, 5), (2, 6), (3, 5), (3, 6)]

    def test_all_stale_yields_nothing(self):
        assert pairs(fresh_pairs([1], [0b100], [2, 3], [0b110, 0b101])) == []


# ----------------------------------------------------------------------
# The history predicate against brute force over whole invocation series
# ----------------------------------------------------------------------
SPECS = (
    "gen:chain:4:0",
    "gen:star:4:1",
    "gen:cycle:4:2",
    "gen:clique:4:3",
    "gen:chain:3:4",
)
LEVELS = 3
STEPS = ("up", "down", "tighten", "unbounded", "times4")


def next_invocation(step, component, optimizer, bounds, resolution):
    """The (bounds, resolution) after one Continue / ChangeBounds step."""
    if step == "up":
        return bounds, min(resolution + 1, LEVELS - 1)
    if step == "down":
        return bounds, max(resolution - 1, 0)
    if step == "unbounded":
        return CostVector.infinite(len(bounds)), resolution
    if step == "times4":
        return CostVector([value * 4.0 for value in bounds]), resolution
    frontier = optimizer.frontier(bounds, resolution)
    if not frontier:
        return bounds, resolution
    index = component % len(bounds)
    values = list(bounds)
    values[index] = statistics.median(plan.cost[index] for plan in frontier)
    return CostVector(values), resolution


@pytest.mark.parametrize("delta_sets", (True, False), ids=("delta", "full"))
@settings(
    max_examples=30,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    spec=st.sampled_from(SPECS),
    steps=st.lists(
        st.tuples(st.sampled_from(STEPS), st.integers(0, 2)), min_size=10, max_size=10
    ),
)
def test_arena_joins_are_the_union_of_every_invocation_box(delta_sets, spec, steps):
    """After every invocation ``j``, the arena holds exactly one join per
    operator of every pair of ``Res^{q1}[0..b_k, 0..r_k] x
    Res^{q2}[0..b_k, 0..r_k]`` over invocations ``k <= j`` and splits
    ``(q1, q2)``, computed from per-invocation snapshots of the result sets."""
    resolved = resolve_request(
        OptimizeRequest(workload=spec, scale="smoke", levels=LEVELS)
    )
    factory, query = resolved.factory, resolved.query
    with flags.overrides(delta_sets=delta_sets):
        optimizer = IncrementalOptimizer(query, factory, resolved.schedule)
    operators = factory.join_operators()
    splits = [split for _, subset_splits in plan_order(query) for split in subset_splits]
    expected = set()

    def invoke(bounds, resolution):
        optimizer.optimize(bounds, resolution)
        box = {
            tables: index.retrieve_ids(bounds, resolution)
            for tables, index in optimizer.state.populated_result_sets().items()
        }
        for left_tables, right_tables in splits:
            expected.update(
                (left_id, right_id, operator)
                for left_id in box.get(left_tables, ())
                for right_id in box.get(right_tables, ())
                for operator in operators
            )
        joins = arena_joins(factory.arena)
        assert len(joins) == len(set(joins)) == factory.counters.join_plans_built
        assert set(joins) == expected

    bounds, resolution = factory.metric_set.unbounded_vector(), 0
    invoke(bounds, resolution)
    for step, component in steps:
        bounds, resolution = next_invocation(
            step, component, optimizer, bounds, resolution
        )
        invoke(bounds, resolution)
