"""Property-based tests for the plan index (hypothesis).

The plan index is the data structure the complexity analysis leans on
(Section 5.3 assumes O(F) retrieval); its range queries and the bucket pruning
must never silently drop or invent plans.  The oracle here is a brute-force
filter over a plain list.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import kernel
from repro.core.index import PlanIndex
from repro.core.pruning import _restrict_runs
from repro.costs.dominance import dominates
from repro.costs.vector import CostVector
from repro.plans.arena import PlanArena
from repro.plans.operators import ScanOperator

from tests.conftest import entries_by_level, insert_plan, scan_plan

try:
    import numpy  # noqa: F401

    BACKENDS = ("python", "numpy")
except ImportError:  # pragma: no cover - depends on environment
    BACKENDS = ("python",)

costs = st.tuples(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)
entries = st.lists(
    st.tuples(costs, st.integers(min_value=0, max_value=4)), min_size=0, max_size=40
)
bounds_values = st.one_of(
    costs.map(lambda c: CostVector(c)),
    st.just(CostVector.infinite(2)),
)


def build_index(entry_list):
    index = PlanIndex()
    arena = PlanArena(2)
    plans = []
    for cost, resolution in entry_list:
        plan = scan_plan(arena, cost)
        insert_plan(index, plan, resolution)
        plans.append((plan, resolution))
    return index, plans


class TestRetrievalMatchesBruteForce:
    @settings(max_examples=150)
    @given(entries, bounds_values, st.integers(min_value=0, max_value=4))
    def test_retrieve_equals_linear_scan(self, entry_list, bounds, max_resolution):
        index, plans = build_index(entry_list)
        expected = {
            plan.plan_id
            for plan, resolution in plans
            if resolution <= max_resolution and dominates(plan.cost, bounds)
        }
        assert set(index.retrieve_ids(bounds, max_resolution)) == expected

    @settings(max_examples=100)
    @given(entries)
    def test_size_and_membership_bookkeeping(self, entry_list):
        index, plans = build_index(entry_list)
        assert len(index) == len(plans)
        for plan, resolution in plans:
            assert index.contains_id(plan.plan_id)
            assert index.resolution_of_id(plan.plan_id) == resolution
        # Removing every plan empties the index.
        for plan, _ in plans:
            index.remove_id(plan.plan_id)
        assert len(index) == 0
        assert index.all_ids() == []

    @settings(max_examples=100)
    @given(entries, st.data())
    def test_removal_keeps_other_entries_retrievable(self, entry_list, data):
        index, plans = build_index(entry_list)
        if not plans:
            return
        victim_position = data.draw(st.integers(min_value=0, max_value=len(plans) - 1))
        victim, _ = plans[victim_position]
        index.remove_id(victim.plan_id)
        remaining = {p.plan_id for p, _ in plans} - {victim.plan_id}
        assert set(index.all_ids()) == remaining


# ----------------------------------------------------------------------
# Bulk moves: drain_ids / insert_ids against the one-plan operations
# ----------------------------------------------------------------------
INF = float("inf")
#: Few distinct values, so buckets hold several plans and ties occur.
bulk_values = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 6.0, 100.0, INF])
bulk_costs = st.tuples(bulk_values, bulk_values)
bulk_entries = st.lists(
    st.tuples(bulk_costs, st.integers(min_value=0, max_value=3)), max_size=40
)
bulk_bounds = st.one_of(st.just((INF, INF)), bulk_costs)


def arena_with(costs):
    arena = PlanArena(2)
    ids = [arena.allocate_scan("t", ScanOperator("seq_scan"), cost) for cost in costs]
    return arena, ids


def assert_index_invariants(index):
    """The location map, the buckets and ``len`` agree with each other."""
    live = 0
    for level, buckets in index._levels.items():
        for bucket_id, bucket in buckets.items():
            columns = bucket.matrix.columns
            for slot, plan_id in enumerate(bucket.items):
                if not bucket.matrix.is_alive(slot):
                    assert plan_id is None
                    continue
                live += 1
                assert index._bucket_of_first(columns[0][slot]) == bucket_id
                assert index._locations[plan_id] == (level, bucket_id)
    for plan_id, (level, bucket_id) in index._locations.items():
        assert plan_id in index._levels[level][bucket_id].items
    assert len(index) == live


def assert_rows_of(arena, plan_ids, columns):
    """``columns`` hold the arena cost rows of ``plan_ids``, in order."""
    assert len(columns) == arena.dimensions
    assert [tuple(row) for row in zip(*columns)] == [
        arena.cost_row(plan_id) for plan_id in plan_ids
    ]
    assert all(len(column) == len(plan_ids) for column in columns)


def assert_same_index(actual, expected, ids):
    assert len(actual) == len(expected)
    assert entries_by_level(actual) == entries_by_level(expected)
    for plan_id in ids:
        assert actual.contains_id(plan_id) == expected.contains_id(plan_id)
        if expected.contains_id(plan_id):
            assert actual.resolution_of_id(plan_id) == expected.resolution_of_id(
                plan_id
            )
    for bounds in ((INF, INF), (3.0, 3.0), (1.0, 100.0)):
        for level in range(5):
            assert actual.retrieve_ids(bounds, level) == expected.retrieve_ids(
                bounds, level
            )


def twin_indexes(arena, ids, levels):
    twins = []
    for _ in range(2):
        index = PlanIndex()
        for plan_id, level in zip(ids, levels):
            index.insert_id(plan_id, level, arena)
        twins.append(index)
    return twins


class TestBulkMovesMatchOnePlanOperations:
    @settings(max_examples=150)
    @given(bulk_entries, bulk_bounds, st.integers(min_value=0, max_value=3))
    def test_drain_equals_retrieve_then_remove(self, entry_list, bounds, max_resolution):
        arena, ids = arena_with([cost for cost, _ in entry_list])
        bulk, loop = twin_indexes(arena, ids, [level for _, level in entry_list])
        expected = loop.retrieve_ids(bounds, max_resolution)
        for plan_id in expected:
            loop.remove_id(plan_id)
        drained, columns, runs = bulk.drain_ids(bounds, max_resolution)
        assert drained == expected
        assert_rows_of(arena, drained, columns)
        assert sum(count for _, count in runs) == len(drained)
        assert_same_index(bulk, loop, ids)
        assert_index_invariants(bulk)

    @settings(max_examples=150)
    @given(
        bulk_entries,
        st.lists(bulk_costs, max_size=30),
        st.integers(min_value=0, max_value=4),
    )
    def test_insert_ids_equals_insert_id_loop(self, entry_list, block, level):
        arena, ids = arena_with([cost for cost, _ in entry_list] + block)
        seeded, fresh = ids[: len(entry_list)], ids[len(entry_list) :]
        bulk, loop = twin_indexes(arena, seeded, [level for _, level in entry_list])
        for plan_id in fresh:
            loop.insert_id(plan_id, level, arena)
        bulk.insert_ids(fresh, level, arena, [list(col) for col in zip(*block)] or None)
        assert_same_index(bulk, loop, ids)
        assert_index_invariants(bulk)


class TestBulkMoveCases:
    def test_drain_empties_a_bucket_and_a_whole_level(self):
        arena, ids = arena_with([(1.0, 1.0), (1.2, 1.0), (50.0, 1.0), (1.0, 1.0)])
        bulk, loop = twin_indexes(arena, ids, [0, 0, 0, 1])
        bounds = (10.0, 10.0)
        expected = loop.retrieve_ids(bounds, 1)
        assert expected == [ids[0], ids[1], ids[3]]
        for plan_id in expected:
            loop.remove_id(plan_id)
        drained, columns, runs = bulk.drain_ids(bounds, 1)
        assert drained == expected
        assert_rows_of(arena, drained, columns)
        bucket = bulk._bucket_of((1.0, 1.0))
        assert runs == [(bucket, 2), (bucket, 1)]
        assert list(bulk._levels) == [0]
        assert list(bulk._levels[0]) == [bulk._bucket_of((50.0, 1.0))]
        assert_same_index(bulk, loop, ids)

    def test_drain_triggers_one_compaction(self):
        costs = [(1.0, float(k)) for k in range(10)]
        arena, ids = arena_with(costs)
        bulk, loop = twin_indexes(arena, ids, [0] * 10)
        bounds = (INF, 5.0)
        expected = loop.retrieve_ids(bounds, 0)
        for plan_id in expected:
            loop.remove_id(plan_id)
        drained, columns, runs = bulk.drain_ids(bounds, 0)
        assert drained == expected == ids[:6]
        assert_rows_of(arena, drained, columns)
        assert runs == [(bulk._bucket_of((1.0, 0.0)), 6)]
        (bucket,) = bulk._levels[0].values()
        # Six tombstones outnumber four survivors: compacted once, in order.
        assert bucket.matrix.dead_count == 0
        assert bucket.items == ids[6:]
        assert_same_index(bulk, loop, ids)
        assert_index_invariants(bulk)
        # Every survivor stays addressable although its slot moved.
        assert bulk.retrieve_ids((INF, INF), 0) == ids[6:]
        for plan_id in ids[6:]:
            assert bulk.resolution_of_id(plan_id) == 0
        for position, plan_id in enumerate(ids[6:], start=7):
            bulk.remove_id(plan_id)
            assert bulk.retrieve_ids((INF, INF), 0) == ids[position:]
            assert_index_invariants(bulk)
        assert len(bulk) == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_drained_columns_are_the_arena_rows(self, backend):
        # At level 0, bucket 1 (first cost 1-2) drains completely and hands
        # its arrays over, and bucket 2 (first cost 3-6) holds a tombstone
        # and drains completely.  At level 1, bucket 2 is split by the
        # bound's first component, the way a tightened time bound splits
        # one, and bucket 1 hands over a vectorised-size block.
        costs = [(1.0, 1.0), (2.0, 2.0), (3.0, 1.0), (5.0, 2.0), (6.0, 1.0)]
        costs += [(3.0, 3.0), (5.0, 1.0), (6.0, 2.0), (5.5, 1.0)] + [(1.5, 1.0)] * 20
        levels = [0, 0, 0, 0, 0, 1, 1, 1, 1] + [1] * 20
        with kernel.use_backend(backend):
            arena, ids = arena_with(costs)
            bulk, loop = twin_indexes(arena, ids, levels)
            for index in (bulk, loop):
                index.remove_id(ids[4])
            bounds = (5.5, INF)
            expected = loop.retrieve_ids(bounds, 1)
            for plan_id in expected:
                loop.remove_id(plan_id)
            drained, columns, runs = bulk.drain_ids(bounds, 1)
        assert drained == expected
        assert ids[7] not in drained and ids[8] in drained
        assert_rows_of(arena, drained, columns)
        assert [count for _, count in runs] == [2, 2, 3, 20]
        assert_same_index(bulk, loop, ids)
        assert_index_invariants(bulk)

    @pytest.mark.parametrize("counts", [[], [1], [2, 2], [3, 0]])
    def test_insert_ids_rejects_runs_that_do_not_cover_the_block(self, counts):
        arena, ids = arena_with([(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)])
        index = PlanIndex()
        bucket = index._bucket_of((1.0, 1.0))
        runs = [(bucket, count) for count in counts]
        with pytest.raises(ValueError, match="runs"):
            index.insert_ids(ids, 0, arena, runs=runs)
        assert len(index) == 0 and index._levels == {}


# ----------------------------------------------------------------------
# Re-registration by bucket run against the per-plan bucket computation
# ----------------------------------------------------------------------
#: First costs include both infinities: ``-inf`` and ``+inf`` both land in
#: the sentinel bucket.
run_firsts = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 6.0, 100.0, INF, -INF])
run_costs = st.tuples(run_firsts, bulk_values)
#: Finite in the first metric, so buckets above the bound stay put and
#: buckets at it may drain in part.
run_bounds = st.tuples(
    st.sampled_from([0.5, 1.0, 2.0, 3.0, 6.0, 100.0]), bulk_values
)


def index_layout(index):
    """Per level: each bucket's id, slot payloads and rows, in dict order."""
    return {
        level: [
            (
                bucket_id,
                list(bucket.items),
                [list(column) for column in bucket.matrix.columns],
            )
            for bucket_id, bucket in buckets.items()
        ]
        for level, buckets in index._levels.items()
    }


class TestRunRegistrationMatchesPerPlanPath:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(run_costs, st.integers(min_value=0, max_value=3)), max_size=40
        ),
        st.data(),
    )
    def test_reparked_runs_equal_per_plan_registration(self, entry_list, data):
        size = len(entry_list)
        removed = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        bounds = data.draw(run_bounds)
        max_resolution = data.draw(st.integers(min_value=0, max_value=3))
        for backend in BACKENDS:
            with kernel.use_backend(backend):
                arena, ids = arena_with([cost for cost, _ in entry_list])
                by_run, per_plan = twin_indexes(
                    arena, ids, [level for _, level in entry_list]
                )
                # Tombstones, and compactions where they outnumber the rest.
                for plan_id, gone in zip(ids, removed):
                    if gone:
                        by_run.remove_id(plan_id)
                        per_plan.remove_id(plan_id)
                drained, drained_columns, runs = by_run.drain_ids(
                    bounds, max_resolution
                )
                assert per_plan.drain_ids(bounds, max_resolution) == (
                    drained,
                    drained_columns,
                    runs,
                )
                assert_rows_of(arena, drained, drained_columns)
                size = len(drained)
                keep = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
                positions = [position for position, kept in enumerate(keep) if kept]
                columns = kernel.ops.take(drained_columns, positions)
                subset = [drained[position] for position in positions]
                level = max_resolution + 1
                by_run.insert_ids(
                    subset, level, arena, columns, _restrict_runs(runs, positions)
                )
                per_plan.insert_ids(subset, level, arena, columns)
            assert index_layout(by_run) == index_layout(per_plan), backend
            assert len(by_run) == len(per_plan)
            for plan_id in ids:
                assert by_run.contains_id(plan_id) == per_plan.contains_id(plan_id)
                if per_plan.contains_id(plan_id):
                    assert by_run.resolution_of_id(
                        plan_id
                    ) == per_plan.resolution_of_id(plan_id)
            for query_bounds in ((INF, INF), bounds):
                for query_level in range(level + 1):
                    assert by_run.retrieve_ids(
                        query_bounds, query_level
                    ) == per_plan.retrieve_ids(query_bounds, query_level)
            assert_index_invariants(by_run)
            assert_index_invariants(per_plan)
