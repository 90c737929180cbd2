"""Differential test of the block path of procedure ``Prune``.

:func:`repro.core.pruning.prune_all_ids` decides a block in three steps (one
cover pass against the in-range incumbents, an in-order walk over the plans
no incumbent covers, candidate registration at block end).  The oracle below
is the per-plan procedure written out by brute force: each plan, in block
order, scans every entry of the result index for an in-range plan with a
compatible order that approximates it, and registers itself the moment it is
pruned.  Both run on the same arena against identically pre-seeded indexes,
on every kernel backend; the outcomes, both indexes and their retrieval
order at every level must come out identical.
"""

import math
import random
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro import kernel
from repro.core.index import PlanIndex
from repro.core.pruning import PruneOutcome, prune_all_ids
from repro.plans.arena import PlanArena
from repro.plans.operators import ScanOperator

from tests.conftest import entries_by_level

try:
    import numpy  # noqa: F401

    BACKENDS = ("python", "numpy")
except ImportError:  # pragma: no cover - depends on environment
    BACKENDS = ("python",)

INF = math.inf
SCAN = ScanOperator("seq_scan")


# ----------------------------------------------------------------------
# Oracle: the per-plan procedure, by brute force over the index entries
# ----------------------------------------------------------------------
def _row_leq(row, bounds):
    return all(value <= bound for value, bound in zip(row, bounds))


def approximated_by_some_entry(
    result_index, arena, bounds_row, resolution, plan_id, scaled_row, respect_orders
):
    """Algorithm 3 line 7: some p_A in Res[0..b, 0..r] with a compatible
    order costs at most ``alpha_r * c(p)``."""
    order_id = arena.order_id_of(plan_id)
    for other in result_index.all_ids():
        if result_index.resolution_of_id(other) > resolution:
            continue
        if respect_orders and order_id != 0 and arena.order_id_of(other) != order_id:
            continue
        row = arena.cost_row(other)
        if _row_leq(row, bounds_row) and _row_leq(row, scaled_row):
            return True
    return False


def oracle_prune_block(
    result_index,
    candidate_index,
    bounds,
    resolution,
    alpha,
    max_resolution,
    arena,
    plan_ids,
    respect_orders,
):
    bounds_row = tuple(bounds)
    outcomes = []
    for plan_id in plan_ids:
        cost_row = arena.cost_row(plan_id)
        scaled_row = tuple(value * alpha for value in cost_row)
        if approximated_by_some_entry(
            result_index,
            arena,
            bounds_row,
            resolution,
            plan_id,
            scaled_row,
            respect_orders,
        ):
            if resolution < max_resolution:
                candidate_index.insert_id(plan_id, resolution + 1, arena)
                outcomes.append(PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION)
            else:
                outcomes.append(PruneOutcome.DISCARDED)
        elif not _row_leq(cost_row, bounds_row):
            candidate_index.insert_id(plan_id, resolution, arena)
            outcomes.append(PruneOutcome.OUT_OF_BOUNDS)
        else:
            result_index.insert_id(plan_id, resolution, arena)
            outcomes.append(PruneOutcome.INSERTED)
    return outcomes


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
#: Few distinct values, so ties, shared buckets and exact dominance occur.
VALUES = st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0, 7.0, 40.0, INF])
ORDERS = st.sampled_from([None, None, "a", "b"])


@st.composite
def scenarios(draw):
    dims = draw(st.integers(min_value=2, max_value=3))
    cost = st.tuples(*([VALUES] * dims))
    max_resolution = draw(st.integers(min_value=0, max_value=3))
    resolution = draw(
        st.one_of(
            st.just(max_resolution),
            st.integers(min_value=0, max_value=max_resolution),
        )
    )
    levels = st.integers(min_value=0, max_value=max_resolution + 1)
    results = draw(st.lists(st.tuples(cost, ORDERS, levels), max_size=10))
    candidates = draw(st.lists(st.tuples(cost, ORDERS, levels), max_size=6))
    # Blocks longer than the numpy backend's small-block cutoff (16 rows)
    # run its vectorised cover pass.
    block = draw(st.lists(st.tuples(cost, ORDERS), min_size=1, max_size=24))
    bounds = draw(
        st.one_of(st.just((INF,) * dims), st.tuples(*([VALUES] * dims)))
    )
    alpha = draw(st.sampled_from([1.0, 1.05, 1.5, 2.0]))
    respect_orders = draw(st.booleans())
    return dict(
        dims=dims,
        max_resolution=max_resolution,
        resolution=resolution,
        results=results,
        candidates=candidates,
        block=block,
        bounds=bounds,
        alpha=alpha,
        respect_orders=respect_orders,
    )


def build(scenario):
    """One arena plus two identical (result, candidate) index pairs."""
    arena = PlanArena(scenario["dims"])

    def allocate(cost, order):
        return arena.allocate_scan("t", SCAN, cost, interesting_order=order)

    seeded_results = [
        (allocate(cost, order), level) for cost, order, level in scenario["results"]
    ]
    seeded_candidates = [
        (allocate(cost, order), level)
        for cost, order, level in scenario["candidates"]
    ]
    block = [allocate(cost, order) for cost, order in scenario["block"]]
    setups = []
    for _ in range(2):
        results, candidates = PlanIndex(), PlanIndex()
        for plan_id, level in seeded_results:
            results.insert_id(plan_id, level, arena)
        for plan_id, level in seeded_candidates:
            candidates.insert_id(plan_id, level, arena)
        setups.append((results, candidates))
    return arena, block, setups


def run(prune, arena, block, setup, scenario) -> List[PruneOutcome]:
    results, candidates = setup
    return prune(
        results,
        candidates,
        scenario["bounds"],
        scenario["resolution"],
        scenario["alpha"],
        scenario["max_resolution"],
        arena,
        block,
        scenario["respect_orders"],
    )


def assert_same_state(scenario, expected_setup, actual_setup):
    for expected_index, actual_index in zip(expected_setup, actual_setup):
        assert entries_by_level(actual_index) == entries_by_level(expected_index)
        assert len(actual_index) == len(expected_index)
        top = scenario["max_resolution"] + 1
        for bounds in (scenario["bounds"], (INF,) * scenario["dims"]):
            for level in range(top + 1):
                assert actual_index.retrieve_ids(bounds, level) == (
                    expected_index.retrieve_ids(bounds, level)
                )


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
class TestBlockMatchesPerPlanOracle:
    @settings(max_examples=300, deadline=None)
    @given(scenarios())
    def test_block_equals_per_plan_loop(self, scenario):
        for backend in BACKENDS:
            with kernel.use_backend(backend):
                arena, block, (expected_setup, actual_setup) = build(scenario)
                expected = run(
                    oracle_prune_block, arena, block, expected_setup, scenario
                )
                actual = run(prune_all_ids, arena, block, actual_setup, scenario)
            assert actual == expected, backend
            assert_same_state(scenario, expected_setup, actual_setup)


def bucket_layout(index):
    """Per level: each bucket's id and live payloads, in bucket order."""
    return {
        level: [
            (bucket_id, bucket.live_items()) for bucket_id, bucket in buckets.items()
        ]
        for level, buckets in index._levels.items()
    }


def assert_same_layout(expected_setup, actual_setup):
    for expected_index, actual_index in zip(expected_setup, actual_setup):
        assert bucket_layout(actual_index) == bucket_layout(expected_index)


class TestBlocksCarryTheirColumns:
    """A fresh block arrives as an id range, a drained one with its columns
    and runs; both must decide exactly what the id list read from the arena
    decides."""

    @settings(max_examples=150, deadline=None)
    @given(scenarios())
    def test_a_range_block_equals_the_same_ids_in_a_list(self, scenario):
        for backend in BACKENDS:
            with kernel.use_backend(backend):
                arena, block, (expected_setup, actual_setup) = build(scenario)
                id_range = range(block[0], block[-1] + 1)
                assert list(id_range) == block
                expected = run(prune_all_ids, arena, block, expected_setup, scenario)
                actual = run(prune_all_ids, arena, id_range, actual_setup, scenario)
            assert actual == expected, backend
            assert_same_state(scenario, expected_setup, actual_setup)
            assert_same_layout(expected_setup, actual_setup)

    @settings(max_examples=150, deadline=None)
    @given(scenarios())
    def test_a_drained_block_equals_its_ids_read_from_the_arena(self, scenario):
        for backend in BACKENDS:
            with kernel.use_backend(backend):
                arena, block, setups = build(scenario)
                # Park the block as candidates at the scenario's levels, then
                # drain it the way candidate reconsideration does.
                drained = []
                for results, candidates in setups:
                    for position, plan_id in enumerate(block):
                        level = position % (scenario["resolution"] + 1)
                        candidates.insert_id(plan_id, level, arena)
                    drained.append(
                        candidates.drain_ids(scenario["bounds"], scenario["resolution"])
                    )
                (plan_ids, _, _), (same_ids, columns, runs) = drained
                assert plan_ids == same_ids
                expected = run(
                    prune_all_ids, arena, plan_ids, setups[0], scenario
                )
                results, candidates = setups[1]
                actual = prune_all_ids(
                    results,
                    candidates,
                    scenario["bounds"],
                    scenario["resolution"],
                    scenario["alpha"],
                    scenario["max_resolution"],
                    arena,
                    same_ids,
                    scenario["respect_orders"],
                    runs=runs,
                    columns=columns,
                )
            assert actual == expected, backend
            assert_same_state(scenario, setups[0], setups[1])
            assert_same_layout(setups[0], setups[1])


class BlockCase:
    """One arena and an empty (result, candidate) index pair per test."""

    def setup_method(self):
        self.arena = PlanArena(2)
        self.results, self.candidates = PlanIndex(), PlanIndex()

    def plan(self, cost, order=None):
        return self.arena.allocate_scan("t", SCAN, cost, interesting_order=order)

    def prune(
        self,
        plan_ids,
        resolution=1,
        bounds=(INF, INF),
        max_resolution=3,
        respect_orders=True,
    ):
        return prune_all_ids(
            self.results,
            self.candidates,
            bounds,
            resolution,
            1.0,
            max_resolution,
            self.arena,
            plan_ids,
            respect_orders,
        )


class TestIncumbentConditions(BlockCase):
    """One plan, one incumbent: each condition of the cover pass alone."""

    def test_covering_incumbent_defers(self):
        incumbent = self.plan((1.0, 1.0))
        self.results.insert_id(incumbent, 1, self.arena)
        target = self.plan((2.0, 2.0))
        assert self.prune([target]) == [PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION]
        assert self.candidates.resolution_of_id(target) == 2

    def test_incumbent_registered_too_high_is_ignored(self):
        incumbent = self.plan((1.0, 1.0))
        self.results.insert_id(incumbent, 2, self.arena)
        target = self.plan((2.0, 2.0))
        assert self.prune([target]) == [PruneOutcome.INSERTED]

    def test_incumbent_with_other_order_is_ignored(self):
        incumbent = self.plan((1.0, 1.0), order="a")
        self.results.insert_id(incumbent, 0, self.arena)
        target = self.plan((2.0, 2.0), order="b")
        assert self.prune([target]) == [PruneOutcome.INSERTED]

    def test_incumbent_out_of_bounds_is_ignored(self):
        incumbent = self.plan((1.0, 5.0))
        self.results.insert_id(incumbent, 0, self.arena)
        target = self.plan((2.0, 6.0))
        assert self.prune([target], bounds=(10.0, 4.0)) == [
            PruneOutcome.OUT_OF_BOUNDS
        ]
        assert self.candidates.resolution_of_id(target) == 1

    def test_incumbent_in_a_cheaper_bucket_covers(self):
        # The index buckets by the first metric: the cover pass must see
        # incumbents of every bucket up to the bounds, not only the plan's.
        cheap = self.plan((0.5, 10.0))
        self.results.insert_id(cheap, 0, self.arena)
        self.results.insert_id(self.plan((900.0, 1.0)), 0, self.arena)
        target = self.plan((1.0, 20.0))
        assert self.prune([target]) == [PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION]


class TestInOrderWalk(BlockCase):
    """Plans no incumbent covers: the block's own inserts cover later plans."""

    def test_an_earlier_insert_covers_a_later_plan_only(self):
        # The pricier plan comes first, so it is inserted before the plan
        # that dominates it; the later insert never covers an earlier plan.
        pricier, cheaper, covered = (
            self.plan((3.0, 3.0)),
            self.plan((1.0, 1.0)),
            self.plan((2.0, 2.0)),
        )
        assert self.prune([pricier, cheaper, covered]) == [
            PruneOutcome.INSERTED,
            PruneOutcome.INSERTED,
            PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION,
        ]
        assert self.results.retrieve_ids((INF, INF), 1) == [pricier, cheaper]
        assert self.candidates.retrieve_ids((INF, INF), 2) == [covered]

    def test_an_ordered_insert_covers_unordered_and_same_order_plans(self):
        first = self.plan((1.0, 1.0), order="a")
        block = [
            first,
            self.plan((2.0, 2.0)),
            self.plan((2.0, 2.0), order="a"),
            self.plan((2.0, 2.0), order="b"),
        ]
        assert self.prune(block) == [
            PruneOutcome.INSERTED,
            PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION,
            PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION,
            PruneOutcome.INSERTED,
        ]

    def test_an_unordered_insert_covers_only_unordered_plans(self):
        block = [
            self.plan((1.0, 1.0)),
            self.plan((2.0, 2.0), order="a"),
            self.plan((2.0, 2.0)),
        ]
        assert self.prune(block) == [
            PruneOutcome.INSERTED,
            PruneOutcome.INSERTED,
            PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION,
        ]

    def test_covered_plans_are_discarded_at_the_maximal_resolution(self):
        block = [self.plan((1.0, 1.0)), self.plan((1.0, 1.0)), self.plan((0.5, 3.0))]
        assert self.prune(block, max_resolution=1) == [
            PruneOutcome.INSERTED,
            PruneOutcome.DISCARDED,
            PruneOutcome.INSERTED,
        ]
        assert len(self.candidates) == 0


    def test_out_of_bounds_and_deferred_plans_register_in_block_order(self):
        block = [
            self.plan((6.0, 1.0)),  # above the bounds
            self.plan((1.0, 1.0)),  # inserted
            self.plan((7.0, 7.0)),  # covered: approximation comes first
            self.plan((0.5, 9.0)),  # above the bounds
            self.plan((2.0, 2.0)),  # covered
        ]
        assert self.prune(block, bounds=(5.0, 5.0)) == [
            PruneOutcome.OUT_OF_BOUNDS,
            PruneOutcome.INSERTED,
            PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION,
            PruneOutcome.OUT_OF_BOUNDS,
            PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION,
        ]
        assert entries_by_level(self.candidates) == {
            1: [block[0], block[3]],
            2: [block[2], block[4]],
        }

    def test_a_plan_above_the_bounds_covers_nothing(self):
        block = [self.plan((9.0, 9.0)), self.plan((10.0, 10.0))]
        assert self.prune(block, bounds=(5.0, 5.0)) == [
            PruneOutcome.OUT_OF_BOUNDS,
            PruneOutcome.OUT_OF_BOUNDS,
        ]
        assert len(self.results) == 0

    def test_walk_over_a_vectorised_tail(self):
        # No incumbents, and more pending plans than the numpy backend's
        # small-block cutoff: every insert's cover call runs vectorised.
        costs = [(float(i % 7 + 1), float(40 - i)) for i in range(40)]
        orders = [None, "a", None, "b"] * 10
        scenario = dict(
            dims=2,
            max_resolution=2,
            resolution=0,
            results=[],
            candidates=[],
            block=list(zip(costs, orders)),
            bounds=(INF, INF),
            alpha=1.05,
            respect_orders=True,
        )
        for backend in BACKENDS:
            with kernel.use_backend(backend):
                arena, block, (expected_setup, actual_setup) = build(scenario)
                expected = run(
                    oracle_prune_block, arena, block, expected_setup, scenario
                )
                actual = run(prune_all_ids, arena, block, actual_setup, scenario)
            assert actual == expected, backend
            assert 1 < actual.count(PruneOutcome.INSERTED) < len(block) - 1
            assert_same_state(scenario, expected_setup, actual_setup)


    def test_walk_over_a_thousand_pending_plans(self, monkeypatch):
        # No incumbents, so all 1,000 plans enter the walk and each insert's
        # geq_slots call runs vectorised over the whole pending bitmap.  An
        # insert also hits later plans whose order it does not provide:
        # those stay alive, and later inserts hit them again.
        rng = random.Random(0)
        costs = []
        for _ in range(1000):
            t = rng.random()
            noise = 80.0 * rng.random()
            costs.append((1.0 + 99.0 * t, 1.0 + 99.0 * (1.0 - t) + noise))
        orders = [(None, "a", "b")[i % 3] for i in range(1000)]
        scenario = dict(
            dims=2,
            max_resolution=2,
            resolution=0,
            results=[],
            candidates=[],
            block=list(zip(costs, orders)),
            bounds=(INF, INF),
            alpha=1.05,
            respect_orders=True,
        )
        for backend in BACKENDS:
            with kernel.use_backend(backend):
                hits = []
                geq_slots = kernel.ops.geq_slots

                def spy(columns, alive, vector):
                    found = geq_slots(columns, alive, vector)
                    hits.extend(found)
                    return found

                monkeypatch.setattr(kernel.ops, "geq_slots", spy)
                arena, block, (expected_setup, actual_setup) = build(scenario)
                expected = run(
                    oracle_prune_block, arena, block, expected_setup, scenario
                )
                actual = run(prune_all_ids, arena, block, actual_setup, scenario)
            assert actual == expected, backend
            assert actual.count(PruneOutcome.INSERTED) >= 20
            # A plan hit twice stayed alive after its first hit.
            assert len(hits) > len(set(hits))
            assert_same_state(scenario, expected_setup, actual_setup)


class TestOneRangeQueryPerBlock(BlockCase):
    def test_the_result_index_is_queried_once_per_block(self, monkeypatch):
        self.results.insert_id(self.plan((1.0, 1.0)), 0, self.arena)
        block = [self.plan((float(i), float(9 - i))) for i in range(8)]
        bounds = (50.0, 50.0)
        queried = []
        retrieve_ids = PlanIndex.retrieve_ids

        def spy(index, *args):
            queried.append((index, args))
            return retrieve_ids(index, *args)

        monkeypatch.setattr(PlanIndex, "retrieve_ids", spy)
        outcomes = self.prune(block, resolution=0, bounds=bounds)
        assert queried == [(self.results, (bounds, 0))]
        # Dominated plans defer, the rest enter the result set.
        assert set(outcomes) == {
            PruneOutcome.INSERTED,
            PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION,
        }

    def test_an_empty_block_queries_nothing(self, monkeypatch):
        monkeypatch.setattr(
            PlanIndex, "retrieve_ids", lambda *args: pytest.fail("queried")
        )
        assert self.prune([]) == []


class TestCoverCalls(BlockCase):
    """Step 1 makes one kernel call per distinct interesting order."""

    def setup_method(self):
        super().setup_method()
        for order in (None, "a", "b"):
            self.results.insert_id(self.plan((1.0, 1.0), order), 0, self.arena)
        self.block = [
            self.plan((2.0, 2.0), order) for order in (None, "a", "b", "a", None, "c")
        ]

    def cover_calls(self, monkeypatch, respect_orders):
        calls = []
        covered_positions = kernel.ops.covered_positions

        def spy(columns, others):
            calls.append((len(columns[0]), len(others[0])))
            return covered_positions(columns, others)

        monkeypatch.setattr(kernel.ops, "covered_positions", spy)
        outcomes = self.prune(self.block, resolution=0, respect_orders=respect_orders)
        return outcomes, calls

    def test_one_cover_call_when_orders_are_ignored(self, monkeypatch):
        outcomes, calls = self.cover_calls(monkeypatch, respect_orders=False)
        assert calls == [(3, 6)]
        assert outcomes == [PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION] * 6

    def test_one_cover_call_per_interesting_order(self, monkeypatch):
        outcomes, calls = self.cover_calls(monkeypatch, respect_orders=True)
        # Unordered plans meet all three incumbents, ordered plans only
        # their own order's; no incumbent has order "c", so its plan is
        # compared with nothing and inserted.
        assert sorted(calls) == [(1, 1), (1, 2), (3, 2)]
        assert outcomes == [PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION] * 5 + [
            PruneOutcome.INSERTED
        ]
