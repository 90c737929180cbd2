"""Unit tests for :mod:`repro.costs.pareto`."""

import pytest

from repro.costs.pareto import (
    approximation_error,
    is_alpha_cover,
    is_pareto_optimal,
    pareto_filter,
)
from repro.costs.vector import CostVector


def vectors(*tuples):
    return [CostVector(t) for t in tuples]


class TestParetoFilter:
    def test_removes_strictly_dominated(self):
        frontier = pareto_filter(vectors((1, 1), (2, 2), (1, 3)))
        assert CostVector([2, 2]) not in frontier
        assert CostVector([1, 1]) in frontier

    def test_keeps_incomparable_points(self):
        frontier = pareto_filter(vectors((1, 3), (3, 1)))
        assert len(frontier) == 2

    def test_collapses_duplicates(self):
        frontier = pareto_filter(vectors((1, 1), (1, 1)))
        assert len(frontier) == 1

    def test_empty_input(self):
        assert pareto_filter([]) == []

    def test_is_pareto_optimal(self):
        universe = vectors((1, 3), (3, 1), (2, 2))
        assert is_pareto_optimal(CostVector([2, 2]), universe)
        assert not is_pareto_optimal(CostVector([4, 4]), universe)


class TestAlphaCover:
    def test_exact_cover(self):
        universe = vectors((1, 2), (2, 1))
        assert is_alpha_cover(universe, universe, alpha=1.0)

    def test_partial_cover_fails(self):
        candidate = vectors((1, 2))
        universe = vectors((1, 2), (2, 1))
        assert not is_alpha_cover(candidate, universe, alpha=1.0)

    def test_alpha_relaxation_enables_cover(self):
        candidate = vectors((1.2, 1.2))
        universe = vectors((1.0, 1.0))
        assert not is_alpha_cover(candidate, universe, alpha=1.0)
        assert is_alpha_cover(candidate, universe, alpha=1.3)

    def test_bounded_cover_ignores_out_of_bounds_plans(self):
        candidate = vectors((1, 1))
        universe = vectors((1, 1), (100, 100))
        bounds = CostVector([10, 10])
        assert is_alpha_cover(candidate, universe, alpha=1.0, bounds=bounds)


class TestApproximationError:
    def test_perfect_candidate_has_error_one(self):
        universe = vectors((1, 2), (2, 1))
        assert approximation_error(universe, universe) == pytest.approx(1.0)

    def test_empty_candidate_has_infinite_error(self):
        assert approximation_error([], vectors((1, 1))) == float("inf")

    def test_empty_universe_has_error_one(self):
        assert approximation_error(vectors((1, 1)), []) == pytest.approx(1.0)

    def test_error_matches_worst_ratio(self):
        candidate = vectors((1.2, 1.0))
        universe = vectors((1.0, 1.0))
        assert approximation_error(candidate, universe) == pytest.approx(1.2)

    def test_bounded_error_ignores_out_of_bounds(self):
        candidate = vectors((1.0, 1.0))
        universe = vectors((1.0, 1.0), (0.1, 0.1))
        bounds = CostVector([0.5, 0.5])
        # Only the (0.1, 0.1) point is within bounds, so the error is 10.
        assert approximation_error(candidate, universe, bounds=bounds) == pytest.approx(10.0)

    def test_error_is_consistent_with_cover_check(self):
        candidate = vectors((1.3, 0.9))
        universe = vectors((1.0, 1.0), (0.8, 1.5))
        error = approximation_error(candidate, universe)
        assert is_alpha_cover(candidate, universe, alpha=error + 1e-9)
