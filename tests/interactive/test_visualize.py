"""Unit tests for :mod:`repro.interactive.visualize`."""

import pytest

from repro.costs.vector import CostVector
from repro.interactive.visualize import ascii_scatter


class TestAsciiScatter:
    def test_renders_points(self):
        art = ascii_scatter([CostVector([1, 1]), CostVector([5, 3])], x_label="time", y_label="fees")
        assert "*" in art
        assert "time" in art and "fees" in art

    def test_empty_input_is_handled(self):
        assert "no plans" in ascii_scatter([])

    def test_bounds_are_drawn(self):
        art = ascii_scatter(
            [CostVector([1, 1]), CostVector([8, 8])],
            bounds=CostVector([5, 5]),
        )
        assert "|" in art
        assert "-" in art

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            ascii_scatter([CostVector([1, 1])], width=5, height=2)

    def test_infinite_costs_are_ignored(self):
        art = ascii_scatter([CostVector([float("inf"), 1]), CostVector([1, 1])])
        assert art.count("*") == 1

    def test_custom_metric_axes(self):
        costs = [CostVector([1, 10, 100]), CostVector([2, 20, 200])]
        art = ascii_scatter(costs, x_metric=1, y_metric=2)
        assert "*" in art
