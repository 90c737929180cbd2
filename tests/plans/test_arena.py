"""Unit tests for :mod:`repro.plans.arena`."""

import pytest

from repro import kernel
from repro.api import PLANNERS, OptimizeRequest, open_session, resolve_request
from repro.costs.vector import CostVector
from repro.plans.arena import KIND_JOIN, KIND_SCAN, NO_CHILD, PlanArena
from repro.plans.operators import JoinOperator, ScanOperator
from repro.plans.plan import JoinPlan, ScanPlan

try:
    import numpy  # noqa: F401

    BACKENDS = ("python", "numpy")
except ImportError:  # pragma: no cover - depends on environment
    BACKENDS = ("python",)


def scan_id(arena, table="t", cost=(1.0, 2.0)):
    return arena.allocate_scan(table, ScanOperator("seq_scan"), CostVector(cost))


class TestAllocation:
    def test_ids_are_dense_and_one_based(self):
        arena = PlanArena(2)
        assert scan_id(arena, "a") == 1
        assert scan_id(arena, "b") == 2
        assert len(arena) == 2

    def test_scan_columns(self):
        arena = PlanArena(2)
        plan_id = scan_id(arena, "orders", (3.0, 4.0))
        assert arena.kind_of(plan_id) == KIND_SCAN
        assert arena.left_of(plan_id) == NO_CHILD
        assert arena.right_of(plan_id) == NO_CHILD
        assert arena.tables_of(plan_id) == frozenset({"orders"})
        assert arena.cost_row(plan_id) == (3.0, 4.0)
        assert arena.first_cost(plan_id) == 3.0
        assert arena.order_of(plan_id) is None
        assert arena.order_id_of(plan_id) == 0

    def test_join_records_children_and_union_tables(self):
        arena = PlanArena(2)
        left = scan_id(arena, "a")
        right = scan_id(arena, "b")
        join = arena.allocate_join(
            left, right, JoinOperator("hash_join"), CostVector([5.0, 5.0])
        )
        assert arena.kind_of(join) == KIND_JOIN
        assert arena.left_of(join) == left
        assert arena.right_of(join) == right
        assert arena.tables_of(join) == frozenset({"a", "b"})

    def test_overlapping_join_operands_rejected(self):
        arena = PlanArena(2)
        left = scan_id(arena, "a")
        right = scan_id(arena, "a")
        with pytest.raises(ValueError):
            arena.allocate_join(
                left, right, JoinOperator("hash_join"), CostVector([1.0, 1.0])
            )

    def test_extend_joins_bulk_allocates_in_order(self):
        arena = PlanArena(2)
        left = scan_id(arena, "a")
        right = scan_id(arena, "b")
        operator_id = arena.intern_operator(JoinOperator("hash_join"))
        tables_id = arena.intern_tables(frozenset({"a", "b"}))
        ids = arena.extend_joins(
            left_ids=[left, left],
            right_ids=[right, right],
            operator_ids=[operator_id, operator_id],
            tables_ids=[tables_id, tables_id],
            order_ids=[0, 0],
            cost_columns=[[10.0, 11.0], [20.0, 21.0]],
        )
        assert ids == range(3, 5)
        assert arena.cost_row(3) == (10.0, 20.0)
        assert arena.cost_row(4) == (11.0, 21.0)
        assert arena.left_of(4) == left and arena.right_of(4) == right

    def test_extend_joins_empty_is_noop(self):
        arena = PlanArena(2)
        assert arena.extend_joins([], [], [], [], [], [[], []]) == range(0)
        assert len(arena) == 0


class TestInterning:
    def test_table_sets_interned_once(self):
        arena = PlanArena(1)
        first = arena.intern_tables(frozenset({"a", "b"}))
        second = arena.intern_tables(frozenset({"b", "a"}))
        assert first == second
        assert arena.tables_for_id(first) == frozenset({"a", "b"})

    def test_tables_of_returns_the_interned_object(self):
        arena = PlanArena(1)
        a = arena.allocate_scan("t", ScanOperator("seq_scan"), CostVector([1.0]))
        b = arena.allocate_scan("t", ScanOperator("seq_scan", parallelism=2), CostVector([2.0]))
        assert arena.tables_of(a) is arena.tables_of(b)

    def test_operators_and_orders_interned(self):
        arena = PlanArena(1)
        operator = JoinOperator("sort_merge_join")
        assert arena.intern_operator(operator) == arena.intern_operator(operator)
        assert arena.intern_order(None) == 0
        assert arena.intern_order("sorted:a") == arena.intern_order("sorted:a")
        assert arena.intern_order("sorted:b") != arena.intern_order("sorted:a")


class TestHandles:
    def test_handles_are_canonical(self):
        arena = PlanArena(2)
        plan_id = scan_id(arena)
        assert arena.plan(plan_id) is arena.plan(plan_id)

    def test_handle_classes_follow_node_kind(self):
        arena = PlanArena(2)
        s = scan_id(arena, "a")
        j = arena.allocate_join(
            s, scan_id(arena, "b"), JoinOperator("hash_join"), CostVector([1.0, 1.0])
        )
        assert isinstance(arena.plan(s), ScanPlan)
        assert isinstance(arena.plan(j), JoinPlan)

    def test_plans_have_no_public_constructor(self):
        # A plan exists only in an arena; ``arena.plan(id)`` is its handle.
        with pytest.raises(TypeError):
            ScanPlan("t", ScanOperator("seq_scan"), CostVector([1.0, 2.0]))

    def test_join_handle_resolves_children_to_the_canonical_handles(self):
        arena = PlanArena(1)
        left = arena.plan(scan_id(arena, "a", (1.0,)))
        right = arena.plan(scan_id(arena, "b", (1.0,)))
        join = arena.plan(
            arena.allocate_join(
                left.plan_id, right.plan_id, JoinOperator("hash_join"), CostVector([2.0])
            )
        )
        assert join.left is left
        assert join.right is right

    def test_cost_vector_is_cached(self):
        arena = PlanArena(2)
        plan = arena.plan(scan_id(arena))
        assert plan.cost is plan.cost
        assert plan.cost == CostVector([1.0, 2.0])

    def test_ids_are_per_arena(self):
        one, two = PlanArena(2), PlanArena(2)
        assert scan_id(one) == scan_id(two) == 1
        assert one.plan(1) is not two.plan(1)
        assert one.plan(1).arena is one


class TestHandleCache:
    """The arena keeps one handle per materialized id, and nothing else."""

    def test_only_materialized_ids_are_cached(self):
        arena = PlanArena(2)
        ids = [scan_id(arena, cost=(float(i), 1.0)) for i in range(6)]
        operator_id = arena.intern_operator(JoinOperator("hash_join"))
        block = arena.extend_joins(
            [ids[0]] * 3, [ids[1]] * 3, [operator_id] * 3, [0] * 3, [0] * 3,
            [[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]],
        )
        assert arena._plans == {}
        handles = arena.plans([ids[2], block[1], ids[2]])
        assert sorted(arena._plans) == [ids[2], block[1]]
        assert handles[0] is handles[2] is arena.plan(ids[2])

    def test_a_dropped_handle_is_the_same_object_next_time(self):
        arena = PlanArena(2)
        plan_id = scan_id(arena)
        cost = arena.plan(plan_id).cost
        # Nobody holds the handle now; the cache still does, so its cached
        # cost comes back rather than a fresh vector.
        assert arena.plan(plan_id).cost is cost

    def test_handles_survive_tombstoning(self):
        arena = PlanArena(2)
        ids = [scan_id(arena, cost=(float(i), 1.0)) for i in range(3)]
        held = arena.plans(ids)
        costs = [plan.cost for plan in held]
        arena.tombstone_ids(ids[:2])
        assert arena.stats().plans_live == 1
        # Rows are never recycled, so a tombstoned plan's handle still reads
        # its own row: the same handle, the same cached cost.
        for plan_id, plan, cost in zip(ids, held, costs):
            assert arena.plan(plan_id) is plan
            assert plan.cost is cost
            assert plan.cost == CostVector([float(plan_id - 1), 1.0])

    @pytest.mark.parametrize("plan_id", (NO_CHILD, -1, 3))
    def test_ids_outside_the_arena_are_refused_and_not_cached(self, plan_id):
        # Ids 1 and 2 exist; 0 is the "no child" sentinel, and neither it nor
        # a negative id may read a row from the end of the columns.
        arena = PlanArena(2)
        scan_id(arena, "x", (1.0, 2.0))
        scan_id(arena, "y", (3.0, 4.0))
        with pytest.raises(KeyError, match=f"no plan with id {plan_id}:"):
            arena.plan(plan_id)
        assert arena._plans == {}


class TestSessionArena:
    """The arena of one session, read through its stats and its handles."""

    def _session(self, workload="gen:star:3:0"):
        return open_session(
            OptimizeRequest(workload=workload, algorithm="iama", scale="tiny", levels=3)
        )

    def test_stats_before_any_invocation(self):
        stats = self._session().driver.factory.arena.stats()
        assert stats.plans_total == 0
        assert stats.approx_bytes == 0

    def test_stats_reflect_occupancy_after_run(self):
        session = self._session()
        session.run()
        stats = session.driver.factory.arena.stats()
        assert stats.plans_total > 0
        assert stats.plans_live + stats.plans_tombstoned == stats.plans_total
        assert stats.approx_bytes > 0

    @pytest.mark.parametrize("algorithm", sorted(PLANNERS))
    def test_every_planner_hands_out_canonical_handles(self, algorithm):
        session = open_session(
            OptimizeRequest(
                workload="gen:star:3:0", algorithm=algorithm, scale="tiny", levels=2
            )
        )
        session.run()
        assert session.frontier_plans
        for plan in session.frontier_plans:
            assert plan.arena.plan(plan.plan_id) is plan
            assert plan.cost is plan.cost

    def test_handles_stay_canonical_across_updates(self):
        session = self._session("gen:clique:4:0")
        arena = session.driver.factory.arena
        first = session.step()
        handles = {plan.plan_id: plan for plan in first.plans}
        costs = {plan.plan_id: plan.cost for plan in first.plans}
        second = session.step()
        shared = [plan for plan in second.plans if plan.plan_id in handles]
        assert shared, "the refinement kept none of the first frontier"
        for plan in second.plans:
            handles.setdefault(plan.plan_id, plan)
            costs.setdefault(plan.plan_id, plan.cost)
        for update in (first, second):
            for plan in update.plans:
                assert arena.plan(plan.plan_id) is plan
                assert plan is handles[plan.plan_id]
                assert plan.cost is costs[plan.plan_id]


class TestTombstoning:
    def test_tombstone_updates_stats_but_keeps_row_addressable(self):
        arena = PlanArena(2)
        plan_id = scan_id(arena)
        keep_id = scan_id(arena, "u")
        arena.tombstone(plan_id)
        stats = arena.stats()
        assert stats.plans_total == 2
        assert stats.plans_live == 1
        assert stats.plans_tombstoned == 1
        assert arena.is_tombstoned(plan_id)
        assert not arena.is_tombstoned(keep_id)
        # Ids are never recycled and the row stays readable.
        assert arena.cost_row(plan_id) == (1.0, 2.0)
        assert scan_id(arena, "v") == 3

    def test_tombstone_is_idempotent(self):
        arena = PlanArena(1)
        plan_id = arena.allocate_scan("t", ScanOperator("seq_scan"), CostVector([1.0]))
        arena.tombstone(plan_id)
        arena.tombstone(plan_id)
        assert arena.stats().plans_tombstoned == 1

    def test_tombstone_ids_equals_a_tombstone_loop(self):
        arenas = []
        for _ in range(2):
            arena = PlanArena(2)
            ids = [scan_id(arena, cost=(float(i), 1.0)) for i in range(6)]
            for plan_id in ids:
                arena.plan(plan_id).cost
            arena.tombstone(ids[1])
            arenas.append((arena, ids))
        (bulk, ids), (loop, _) = arenas
        # An already dead id, a repeat and live ids, out of order.
        block = [ids[4], ids[1], ids[2], ids[4], ids[0]]
        bulk.tombstone_ids(block)
        for plan_id in block:
            loop.tombstone(plan_id)
        assert bulk.stats() == loop.stats()
        assert bulk.stats().plans_tombstoned == 4

        def state(arena):
            return (
                [arena.is_tombstoned(plan_id) for plan_id in ids],
                [arena.cost_row(plan_id) for plan_id in ids],
                sorted(arena._plans),
            )

        assert state(bulk) == state(loop)
        assert state(bulk)[0] == [True, True, True, False, True, False]
        # Tombstoning leaves the handle cache alone.
        assert state(bulk)[2] == ids

    def test_tombstone_ids_accepts_a_one_shot_iterator(self):
        arena = PlanArena(2)
        ids = [scan_id(arena, cost=(float(i), 1.0)) for i in range(4)]
        arena.tombstone_ids(plan_id for plan_id in ids if plan_id % 2)
        assert [arena.is_tombstoned(plan_id) for plan_id in ids] == [
            True,
            False,
            True,
            False,
        ]
        assert arena.stats().plans_tombstoned == 2

    def test_tombstone_ids_of_nothing_live_changes_nothing(self):
        arena = PlanArena(2)
        plan_id = scan_id(arena)
        arena.tombstone(plan_id)
        before = arena.stats()
        arena.tombstone_ids([])
        arena.tombstone_ids([plan_id, plan_id])
        assert arena.stats() == before


class TestStats:
    def test_byte_estimate_grows_with_allocation(self):
        arena = PlanArena(3)
        empty = arena.stats().approx_bytes
        for _ in range(10):
            scan_id(arena, "t", (1.0, 2.0, 3.0))
        assert arena.stats().approx_bytes > empty

    def test_interning_counts(self):
        arena = PlanArena(1)
        scan_id(arena, "a", (1.0,))
        scan_id(arena, "b", (1.0,))
        stats = arena.stats()
        assert stats.table_sets_interned == 2
        assert stats.operators_interned == 1
        assert stats.orders_interned == 0


class TestCombineBlockEquivalence:
    """The batched factory path must equal the scalar path bit for bit."""

    @pytest.fixture
    def factory(self):
        return resolve_request(
            OptimizeRequest(workload="gen:star:3:5", algorithm="iama", scale="tiny")
        ).factory

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_combine_block_matches_join_plan(self, factory, backend):
        arena = factory.arena
        tables = sorted(
            {
                table
                for table in resolve_request(
                    OptimizeRequest(
                        workload="gen:star:3:5", algorithm="iama", scale="tiny"
                    )
                ).query.tables
            }
        )
        left_ids = factory.scan_block(tables[0])
        right_ids = factory.scan_block(tables[1])
        operators = factory.join_operators()
        pairs = [
            (left_id, right_id) for left_id in left_ids for right_id in right_ids
        ]
        with kernel.use_backend(backend):
            block_ids = factory.combine_block(
                arena.tables_of(left_ids[0]),
                arena.tables_of(right_ids[0]),
                [left_id for left_id, _ in pairs],
                [right_id for _, right_id in pairs],
                operators,
            )
            # Pair-major, operator-minor.
            scalar_plans = [
                factory.join_plan(arena.plan(left_id), arena.plan(right_id), operator)
                for left_id, right_id in pairs
                for operator in operators
            ]
        assert len(block_ids) == len(scalar_plans) == len(pairs) * len(operators)
        for block_id, scalar in zip(block_ids, scalar_plans):
            assert arena.cost_row(block_id) == tuple(scalar.cost)
            assert arena.order_of(block_id) == scalar.interesting_order
            assert arena.operator_of(block_id) == scalar.operator
            assert arena.left_of(block_id) == arena.left_of(scalar.plan_id)
            assert arena.right_of(block_id) == arena.right_of(scalar.plan_id)

    def test_combine_block_rejects_overlapping_splits(self, factory):
        arena = factory.arena
        table = sorted(
            resolve_request(
                OptimizeRequest(workload="gen:star:3:5", algorithm="iama", scale="tiny")
            ).query.tables
        )[0]
        ids = factory.scan_block(table)
        with pytest.raises(ValueError):
            factory.combine_block(
                arena.tables_of(ids[0]),
                arena.tables_of(ids[0]),
                [ids[0]],
                [ids[0]],
                factory.join_operators(),
            )

    def test_combine_block_empty(self, factory):
        assert (
            factory.combine_block(
                frozenset({"a"}), frozenset({"b"}), [], [], factory.join_operators()
            )
            == range(0)
        )
