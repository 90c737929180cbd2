"""Pickle round trips of plan arenas and cost matrices.

Arenas and cost matrices are plain picklable values.  These tests pin down
what a round trip gives: the same columns, interning tables, tombstones and
statistics; handles bound to the copy rather than to the original; the same
next plan id; and cost columns on which every kernel backend answers exactly
as it did before.
"""

import pickle
import random

import pytest

from repro import kernel
from repro.costs.matrix import CostMatrix
from repro.costs.vector import CostVector
from repro.plans.arena import PlanArena
from repro.plans.operators import JoinOperator, ScanOperator
from repro.plans.plan import JoinPlan, ScanPlan

try:
    import numpy  # noqa: F401

    BACKENDS = ("python", "numpy")
except ImportError:  # pragma: no cover - depends on environment
    BACKENDS = ("python",)


def _populated_arena():
    """Scans, joins, an interesting order and a tombstone."""
    arena = PlanArena(3)
    seq = ScanOperator("seq_scan")
    a = arena.allocate_scan("a", seq, CostVector([1.0, 2.0, 3.0]))
    b = arena.allocate_scan(
        "b", seq, CostVector([2.0, 1.0, 3.0]), interesting_order="sorted:b"
    )
    c = arena.allocate_scan(
        "c", ScanOperator("seq_scan", parallelism=2), CostVector([3.0, 3.0, 1.0])
    )
    ab = arena.allocate_join(a, b, JoinOperator("hash_join"), CostVector([4.0, 4.0, 7.0]))
    arena.allocate_join(
        ab,
        c,
        JoinOperator("sort_merge_join"),
        CostVector([9.0, 8.0, 9.0]),
        interesting_order="sorted:b",
    )
    arena.allocate_scan("x", seq, CostVector([0.5, 0.5, 0.5]))
    arena.tombstone(c)
    return arena


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestArenaRoundTrip:
    def test_columns_and_interning_survive(self):
        arena = _populated_arena()
        clone = _round_trip(arena)
        assert len(clone) == len(arena) == 6
        for plan_id in range(1, len(arena) + 1):
            assert clone.kind_of(plan_id) == arena.kind_of(plan_id)
            assert clone.left_of(plan_id) == arena.left_of(plan_id)
            assert clone.right_of(plan_id) == arena.right_of(plan_id)
            assert clone.operator_of(plan_id) == arena.operator_of(plan_id)
            assert clone.tables_of(plan_id) == arena.tables_of(plan_id)
            assert clone.order_of(plan_id) == arena.order_of(plan_id)
            assert clone.cost_row(plan_id) == arena.cost_row(plan_id)
            assert clone.is_tombstoned(plan_id) == arena.is_tombstoned(plan_id)

    def test_stats_survive(self):
        arena = _populated_arena()
        stats = arena.stats()
        assert stats.plans_tombstoned == 1
        assert _round_trip(arena).stats() == stats

    def test_handles_bind_to_the_copy(self):
        arena = _populated_arena()
        original_root = arena.plan(5)  # materialized before the pickle
        clone = _round_trip(arena)
        root = clone.plan(5)
        assert isinstance(root, JoinPlan)
        assert root is not original_root
        assert root.arena is clone
        assert root is clone.plan(5)
        assert root.left is clone.plan(4)
        assert isinstance(root.right, ScanPlan)
        assert root.tables == frozenset({"a", "b", "c"})
        assert root.cost == original_root.cost

    def test_next_allocation_matches_the_original(self):
        arena = _populated_arena()
        clone = _round_trip(arena)
        ids = []
        for target in (arena, clone):
            scan = target.allocate_scan(
                "d", ScanOperator("seq_scan"), CostVector([1.0, 1.0, 1.0])
            )
            join = target.allocate_join(
                4, scan, JoinOperator("hash_join"), CostVector([5.0, 6.0, 7.0]),
                interesting_order="sorted:b",
            )
            ids.append(
                (scan, join, target.tables_id_of(join), target.order_id_of(join))
            )
        assert ids[0] == ids[1]
        assert clone.stats() == arena.stats()

    def test_the_copy_is_independent(self):
        arena = _populated_arena()
        clone = _round_trip(arena)
        clone.tombstone(1)
        clone.allocate_scan("y", ScanOperator("seq_scan"), CostVector([1.0, 1.0, 1.0]))
        assert not arena.is_tombstoned(1)
        assert len(arena) == 6
        assert arena.stats().plans_tombstoned == 1

    def test_byte_estimate_counts_every_column(self):
        # Per plan: the cost row, the liveness byte, the kind byte and five
        # 8-byte id columns.  The frontier cache charges parked sessions by
        # this estimate, so a copied arena is charged what it was before.
        arena = PlanArena(3)
        empty = arena.stats().approx_bytes
        for i in range(4):
            arena.allocate_scan(f"t{i}", ScanOperator("seq_scan"), (float(i), 1.0, 2.0))
        per_plan = 3 * 8 + 1 + 1 + 5 * 8
        assert arena.stats().approx_bytes == empty + 4 * per_plan
        assert _round_trip(arena).stats().approx_bytes == empty + 4 * per_plan


class TestMatrixRoundTrip:
    def _matrix(self):
        rng = random.Random(11)
        rows = [tuple(rng.uniform(0.0, 10.0) for _ in range(3)) for _ in range(97)]
        matrix = CostMatrix(3)
        for row in rows:
            matrix.append(row)
        for slot in (5, 17, 60):
            matrix.kill(slot)
        return matrix, rows

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_kernel_answers_match_the_original(self, backend):
        matrix, rows = self._matrix()
        clone = _round_trip(matrix)
        probe = rows[23]
        bounds = (6.0, 6.0, 6.0)
        with kernel.use_backend(backend):
            assert clone.pareto_mask() == matrix.pareto_mask()
            assert clone.dominated_by_slots(probe) == matrix.dominated_by_slots(probe)
            assert clone.dominated_slots(bounds) == matrix.dominated_slots(bounds)

    def test_live_slots_and_compaction_survive(self):
        matrix, _ = self._matrix()
        clone = _round_trip(matrix)
        assert clone.alive_slots() == matrix.alive_slots()
        assert len(clone) == len(matrix)
        assert clone.compact() == matrix.compact()
        assert [clone.row(s) for s in clone.alive_slots()] == [
            matrix.row(s) for s in matrix.alive_slots()
        ]
