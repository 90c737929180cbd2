"""Differential test of the block path of procedure ``Prune``.

:func:`repro.core.pruning.prune_all_ids` decides a block in three steps (one
cached-witness pass, per-plan searches for the rest, candidate registration
at block end).  The oracle below is the per-plan procedure it replaced:
every plan checks its cached witness, searches, and registers itself in the
moment it is pruned, in block order.  Both run on the same arena against
identically pre-seeded indexes and witness caches; the outcomes, the witness
objects, both indexes and their retrieval order must come out identical.
"""

import math
from typing import Dict, List, Optional

from hypothesis import given, settings, strategies as st

from repro import flags
from repro.core.index import PlanIndex
from repro.core.pruning import PruneOutcome, prune_all_ids
from repro.plans.arena import PlanArena
from repro.plans.operators import ScanOperator

from tests.conftest import entries_by_level

INF = math.inf
SCAN = ScanOperator("seq_scan")


# ----------------------------------------------------------------------
# Oracle: the per-plan procedure
# ----------------------------------------------------------------------
def _row_leq(row, bounds):
    return all(value <= bound for value, bound in zip(row, bounds))


def oracle_prune_one(
    result_index,
    candidate_index,
    bounds_row,
    resolution,
    max_resolution,
    arena,
    plan_id,
    cost_row,
    scaled_row,
    respect_orders,
    witnesses,
):
    order_id = arena.order_id_of(plan_id)
    witness_id = 0
    if witnesses is not None:
        cached = witnesses.get(plan_id)
        if cached is not None:
            cached_id = cached.plan_id
            if (
                result_index.contains_id(cached_id)
                and result_index.resolution_of_id(cached_id) <= resolution
                and (
                    not respect_orders
                    or order_id == 0
                    or arena.order_id_of(cached_id) == order_id
                )
            ):
                cached_row = arena.cost_row(cached_id)
                if _row_leq(cached_row, bounds_row) and _row_leq(
                    cached_row, scaled_row
                ):
                    witness_id = cached_id
    if witness_id == 0:
        witness_id = result_index.find_dominating_id(
            scaled_row,
            bounds_row,
            resolution,
            order_id if respect_orders and order_id != 0 else None,
        )
    if witness_id:
        if witnesses is not None:
            witnesses[plan_id] = arena.plan(witness_id)
        if resolution < max_resolution:
            candidate_index.insert_id(plan_id, resolution + 1, arena, cost_row)
            return PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION
        if witnesses is not None:
            witnesses.pop(plan_id, None)
        return PruneOutcome.DISCARDED
    if not _row_leq(cost_row, bounds_row):
        candidate_index.insert_id(plan_id, resolution, arena, cost_row)
        return PruneOutcome.OUT_OF_BOUNDS
    result_index.insert_id(plan_id, resolution, arena, cost_row)
    if witnesses is not None:
        witnesses.pop(plan_id, None)
    return PruneOutcome.INSERTED


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
    witnesses,
):
    bounds_row = tuple(bounds)
    outcomes = []
    for plan_id in plan_ids:
        cost_row = arena.cost_row(plan_id)
        scaled_row = tuple(value * alpha for value in cost_row)
        outcomes.append(
            oracle_prune_one(
                result_index,
                candidate_index,
                bounds_row,
                resolution,
                max_resolution,
                arena,
                plan_id,
                cost_row,
                scaled_row,
                respect_orders,
                witnesses,
            )
        )
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
    block = draw(st.lists(st.tuples(cost, ORDERS), min_size=1, max_size=24))
    bounds = draw(
        st.one_of(st.just((INF,) * dims), st.tuples(*([VALUES] * dims)))
    )
    alpha = draw(st.sampled_from([1.0, 1.05, 1.5, 2.0]))
    respect_orders = draw(st.booleans())
    use_cache = draw(st.integers(min_value=0, max_value=3)) > 0
    # Per block plan, the pre-seeded plan cached as its witness, if any:
    # result plans (valid, registered too high, order-mismatched or out of
    # bounds, depending on the draw) and candidate plans (never in the
    # result set).
    pool = len(results) + len(candidates)
    cache = (
        draw(
            st.lists(
                st.one_of(st.none(), st.integers(min_value=0, max_value=pool - 1)),
                min_size=len(block),
                max_size=len(block),
            )
        )
        if use_cache and pool
        else []
    )
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
        use_cache=use_cache,
        cache=cache,
    )


def build(scenario):
    """One arena plus two identical (result, candidate, witnesses) setups."""
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
    pool = [plan_id for plan_id, _ in seeded_results + seeded_candidates]
    setups = []
    for _ in range(2):
        results, candidates = PlanIndex(), PlanIndex()
        for plan_id, level in seeded_results:
            results.insert_id(plan_id, level, arena)
        for plan_id, level in seeded_candidates:
            candidates.insert_id(plan_id, level, arena)
        witnesses: Optional[Dict[int, object]] = None
        if scenario["use_cache"]:
            witnesses = {
                plan_id: arena.plan(pool[choice])
                for plan_id, choice in zip(block, scenario["cache"])
                if choice is not None
            }
        setups.append((results, candidates, witnesses))
    return arena, block, setups


def run(prune, arena, block, setup, scenario) -> List[PruneOutcome]:
    results, candidates, witnesses = setup
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
        witnesses,
    )


def assert_same_state(scenario, expected_setup, actual_setup):
    for expected_index, actual_index in zip(expected_setup[:2], actual_setup[:2]):
        assert entries_by_level(actual_index) == entries_by_level(expected_index)
        assert len(actual_index) == len(expected_index)
        top = scenario["max_resolution"] + 1
        for bounds in (scenario["bounds"], (INF,) * scenario["dims"]):
            for level in range(top + 1):
                assert actual_index.retrieve_ids(bounds, level) == (
                    expected_index.retrieve_ids(bounds, level)
                )
    expected_witnesses, actual_witnesses = expected_setup[2], actual_setup[2]
    if expected_witnesses is None:
        assert actual_witnesses is None
        return
    assert list(actual_witnesses) == list(expected_witnesses)
    for plan_id, witness in expected_witnesses.items():
        assert actual_witnesses[plan_id] is witness


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
class TestBlockMatchesPerPlanOracle:
    @settings(max_examples=300, deadline=None)
    @given(scenarios())
    def test_block_equals_per_plan_loop(self, scenario):
        arena, block, (expected_setup, actual_setup) = build(scenario)
        expected = run(oracle_prune_block, arena, block, expected_setup, scenario)
        actual = run(prune_all_ids, arena, block, actual_setup, scenario)
        assert actual == expected
        assert_same_state(scenario, expected_setup, actual_setup)

    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    def test_block_equals_per_plan_loop_with_features_off(self, scenario):
        with flags.overrides(incremental_pareto=False):
            arena, block, (expected_setup, actual_setup) = build(scenario)
            expected = run(oracle_prune_block, arena, block, expected_setup, scenario)
            actual = run(prune_all_ids, arena, block, actual_setup, scenario)
        assert actual == expected
        assert_same_state(scenario, expected_setup, actual_setup)


class TestCachedWitnessConditions:
    """One plan, one cached witness: each condition of the cache pass alone."""

    def setup_method(self):
        self.arena = PlanArena(2)
        self.results, self.candidates = PlanIndex(), PlanIndex()

    def plan(self, cost, order=None):
        return self.arena.allocate_scan("t", SCAN, cost, interesting_order=order)

    def prune(self, plan_id, witnesses, resolution=1, bounds=(INF, INF)):
        return prune_all_ids(
            self.results,
            self.candidates,
            bounds,
            resolution,
            1.0,
            3,
            self.arena,
            [plan_id],
            True,
            witnesses,
        )

    def test_valid_witness_defers(self):
        witness = self.plan((1.0, 1.0))
        self.results.insert_id(witness, 1, self.arena)
        target = self.plan((2.0, 2.0))
        witnesses = {target: self.arena.plan(witness)}
        assert self.prune(target, witnesses) == [
            PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION
        ]
        assert witnesses[target] is self.arena.plan(witness)
        assert self.candidates.resolution_of_id(target) == 2

    def test_witness_registered_too_high_is_ignored(self):
        witness = self.plan((1.0, 1.0))
        self.results.insert_id(witness, 2, self.arena)
        target = self.plan((2.0, 2.0))
        assert self.prune(target, {target: self.arena.plan(witness)}) == [
            PruneOutcome.INSERTED
        ]

    def test_witness_with_other_order_is_ignored(self):
        witness = self.plan((1.0, 1.0), order="a")
        self.results.insert_id(witness, 0, self.arena)
        target = self.plan((2.0, 2.0), order="b")
        witnesses = {target: self.arena.plan(witness)}
        assert self.prune(target, witnesses) == [PruneOutcome.INSERTED]
        assert target not in witnesses

    def test_witness_out_of_bounds_is_ignored(self):
        witness = self.plan((1.0, 5.0))
        self.results.insert_id(witness, 0, self.arena)
        target = self.plan((2.0, 6.0))
        assert self.prune(
            target, {target: self.arena.plan(witness)}, bounds=(10.0, 4.0)
        ) == [PruneOutcome.OUT_OF_BOUNDS]
        assert self.candidates.resolution_of_id(target) == 1


class TestBoundsBucket:
    """The block buckets its shared bound vector once, and every witness
    search of the block reuses that bucket instead of re-bucketing."""

    def test_bounds_are_bucketed_once_per_block(self, monkeypatch):
        arena = PlanArena(2)
        results, candidates = PlanIndex(), PlanIndex()
        witness = arena.allocate_scan("t", SCAN, (1.0, 1.0))
        results.insert_id(witness, 0, arena)
        block = [
            arena.allocate_scan("t", SCAN, (float(i), float(9 - i)))
            for i in range(8)
        ]
        bounds = (50.0, 50.0)
        expected_bucket = results.bucket_of(bounds)
        bucketed, searched = [], []
        bucket_of = PlanIndex.bucket_of
        find_dominating_id = PlanIndex.find_dominating_id

        def spy_bucket_of(index, cost):
            bucketed.append(tuple(cost))
            return bucket_of(index, cost)

        def spy_find(index, target, bounds_row, max_resolution, *rest):
            searched.append(rest[1] if len(rest) > 1 else None)
            return find_dominating_id(index, target, bounds_row, max_resolution, *rest)

        monkeypatch.setattr(PlanIndex, "bucket_of", spy_bucket_of)
        monkeypatch.setattr(PlanIndex, "find_dominating_id", spy_find)
        outcomes = prune_all_ids(
            results, candidates, bounds, 0, 1.0, 2, arena, block, True, None
        )
        assert bucketed == [bounds]
        assert searched == [expected_bucket] * len(block)
        # Dominated plans defer, the rest enter the result set.
        assert set(outcomes) == {
            PruneOutcome.INSERTED,
            PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION,
        }
