"""Unit tests for :mod:`repro.costs.matrix`."""

import pytest

from repro.costs.matrix import CostMatrix
from repro.costs.vector import CostVector


def fill(matrix, *rows):
    return [matrix.append(row) for row in rows]


class TestBookkeeping:
    def test_needs_at_least_one_metric(self):
        with pytest.raises(ValueError):
            CostMatrix(0)

    def test_append_returns_consecutive_slots(self):
        matrix = CostMatrix(2)
        assert fill(matrix, (1, 2), (3, 4)) == [0, 1]
        assert len(matrix) == 2
        assert matrix.slot_count == 2

    def test_append_rejects_wrong_dimensionality(self):
        matrix = CostMatrix(2)
        with pytest.raises(ValueError):
            matrix.append((1, 2, 3))

    def test_row_round_trips_cost_vectors(self):
        matrix = CostMatrix(3)
        slot = matrix.append(CostVector([1.5, 2.5, float("inf")]))
        assert matrix.row(slot) == CostVector([1.5, 2.5, float("inf")])

    def test_kill_and_alive_accounting(self):
        matrix = CostMatrix(2)
        slots = fill(matrix, (1, 1), (2, 2), (3, 3))
        matrix.kill(slots[1])
        assert len(matrix) == 2
        assert matrix.dead_count == 1
        assert matrix.alive_slots() == [slots[0], slots[2]]
        assert not matrix.is_alive(slots[1])
        with pytest.raises(KeyError):
            matrix.kill(slots[1])

    def test_kill_live_slots_skips_dead_and_repeated_slots(self):
        matrix = CostMatrix(2)
        slots = fill(matrix, (1, 1), (2, 2), (3, 3), (4, 4))
        matrix.kill(slots[1])
        killed = matrix.kill_live_slots(
            iter([slots[3], slots[1], slots[0], slots[3]])
        )
        assert killed == [slots[3], slots[0]]
        assert matrix.alive_slots() == [slots[2]]
        assert (len(matrix), matrix.dead_count) == (1, 3)
        assert matrix.kill_live_slots([slots[1], slots[1]]) == []
        assert (len(matrix), matrix.dead_count) == (1, 3)

    def test_compact_preserves_order_and_reports_kept_slots(self):
        matrix = CostMatrix(2)
        slots = fill(matrix, (1, 1), (2, 2), (3, 3), (4, 4))
        matrix.kill(slots[0])
        matrix.kill(slots[2])
        kept = matrix.compact()
        assert kept == [1, 3]
        assert matrix.rows() == [CostVector([2, 2]), CostVector([4, 4])]
        assert matrix.dead_count == 0

    def test_from_vectors_and_clear(self):
        matrix = CostMatrix.from_vectors([(1, 2), (3, 4)])
        assert matrix.dimensions == 2
        assert len(matrix) == 2
        matrix.clear()
        assert len(matrix) == 0
        with pytest.raises(ValueError):
            CostMatrix.from_vectors([])
        assert len(CostMatrix.from_vectors([], dimensions=2)) == 0


class TestDominanceOps:
    def test_dominated_slots_filters_rows_within_bounds(self):
        matrix = CostMatrix.from_vectors([(1, 1), (5, 1), (1, 5), (6, 6)])
        assert matrix.dominated_slots((5, 5)) == [0, 1, 2]

    def test_dominated_slots_skips_tombstones(self):
        matrix = CostMatrix.from_vectors([(1, 1), (2, 2)])
        matrix.kill(0)
        assert matrix.dominated_slots((5, 5)) == [1]

    def test_dominated_mask_is_over_live_rows(self):
        matrix = CostMatrix.from_vectors([(1, 1), (9, 9), (2, 2)])
        matrix.kill(0)
        assert matrix.dominated_mask((5, 5)) == [False, True]

    def test_infinite_bounds_admit_everything(self):
        inf = float("inf")
        matrix = CostMatrix.from_vectors([(1, 1), (inf, 2)])
        assert matrix.dominated_slots((inf, inf)) == [0, 1]

    def test_dominated_by_slots(self):
        matrix = CostMatrix.from_vectors([(1, 1), (3, 3), (2, 0.5)])
        assert matrix.dominated_by_slots((2, 2)) == [1]

    def test_dimension_mismatch_raises(self):
        matrix = CostMatrix(2)
        with pytest.raises(ValueError):
            matrix.dominated_slots((1, 2, 3))


class TestParetoMask:
    def test_marks_only_non_dominated_rows(self):
        matrix = CostMatrix.from_vectors([(2, 2), (1, 3), (3, 1), (3, 3)])
        assert matrix.pareto_mask() == [True, True, True, False]

    def test_duplicates_keep_exactly_one_representative(self):
        matrix = CostMatrix.from_vectors([(1, 1), (1, 1), (1, 1)])
        assert matrix.pareto_mask() == [True, False, False]

    def test_mask_is_over_live_rows_in_slot_order(self):
        matrix = CostMatrix.from_vectors([(5, 5), (1, 1), (0.5, 9)])
        matrix.kill(1)
        # Without the (1, 1) row, (5, 5) and (0.5, 9) are incomparable.
        assert matrix.pareto_mask() == [True, True]


class TestScaling:
    def test_scaled_rows_multiplies_each_component(self):
        matrix = CostMatrix.from_vectors([(1, 2), (3, 4)])
        assert matrix.scaled_rows(2.0) == [CostVector([2, 4]), CostVector([6, 8])]

    def test_scaled_rows_matches_cost_vector_scaled(self):
        values = (1.37, 2.113, 0.009)
        matrix = CostMatrix.from_vectors([values])
        assert matrix.scaled_rows(1.01) == [CostVector(values).scaled(1.01)]

    def test_scale_returns_compacted_matrix(self):
        matrix = CostMatrix.from_vectors([(1, 1), (2, 2)])
        matrix.kill(0)
        scaled = matrix.scale(3.0)
        assert scaled.rows() == [CostVector([6, 6])]
        assert scaled.slot_count == 1

    def test_negative_factor_rejected(self):
        matrix = CostMatrix.from_vectors([(1, 1)])
        with pytest.raises(ValueError):
            matrix.scaled_rows(-1.0)
