"""Unit tests for :mod:`repro.interactive.user_models`."""

import pytest

from repro.api.schema import FrontierUpdate, InvocationSummary, frontier_summaries
from repro.core.control import ChangeBounds, Continue, SelectPlan
from repro.costs.metrics import cloud_metric_set
from repro.costs.vector import CostVector
from repro.interactive.user_models import (
    BoundRelaxingUser,
    BoundTighteningUser,
    PlanSelectingUser,
    ScriptedUser,
    UserModel,
    weighted_sum_chooser,
)
from repro.plans.arena import PlanArena
from tests.conftest import scan_plan


def make_result(costs, iteration=1, resolution=0, bounds=None):
    """The frontier update a session streams after one invocation."""
    metric_set = cloud_metric_set()
    bounds = bounds or metric_set.unbounded_vector()
    arena = PlanArena(metric_set.dimensions)
    plans = [scan_plan(arena, cost) for cost in costs]
    invocation = InvocationSummary(
        index=iteration,
        resolution=resolution,
        alpha=1.05,
        bounds=bounds,
        duration_seconds=0.01,
        frontier_size=len(plans),
    )
    return FrontierUpdate(
        algorithm="iama",
        invocation=invocation,
        frontier=frontier_summaries(plans),
        elapsed_seconds=0.01,
        plans=tuple(plans),
    )


class TestPassiveAndScripted:
    def test_user_model_never_interacts(self):
        user = UserModel()
        assert isinstance(user.react(make_result([(1, 1)])), Continue)

    def test_scripted_user_replays_actions_then_continues(self):
        bounds = CostVector([1, 1])
        user = ScriptedUser([ChangeBounds(bounds), SelectPlan()])
        assert isinstance(user.react(make_result([(1, 1)], iteration=1)), ChangeBounds)
        assert isinstance(user.react(make_result([(1, 1)], iteration=2)), SelectPlan)
        assert isinstance(user.react(make_result([(1, 1)], iteration=3)), Continue)

    def test_user_model_is_callable(self):
        assert isinstance(UserModel()(make_result([(1, 1)])), Continue)


class TestBoundTighteningUser:
    def test_first_change_uses_quantile_of_frontier(self):
        metric_set = cloud_metric_set()
        user = BoundTighteningUser(metric_set, "execution_time", tighten_every=1, initial_quantile=1.0)
        action = user.react(make_result([(1, 1), (5, 1), (10, 1)]))
        assert isinstance(action, ChangeBounds)
        assert action.bounds[0] == pytest.approx(10.0)

    def test_subsequent_changes_tighten_geometrically(self):
        metric_set = cloud_metric_set()
        user = BoundTighteningUser(metric_set, "execution_time", tighten_every=1, factor=0.5, initial_quantile=1.0)
        first = user.react(make_result([(8, 1)], iteration=1))
        second = user.react(make_result([(8, 1)], iteration=2))
        assert second.bounds[0] == pytest.approx(first.bounds[0] * 0.5)

    def test_respects_tighten_every(self):
        metric_set = cloud_metric_set()
        user = BoundTighteningUser(metric_set, "execution_time", tighten_every=2)
        assert isinstance(user.react(make_result([(1, 1)], iteration=1)), Continue)
        assert isinstance(user.react(make_result([(1, 1)], iteration=2)), ChangeBounds)

    def test_empty_frontier_defers_change(self):
        metric_set = cloud_metric_set()
        user = BoundTighteningUser(metric_set, "execution_time", tighten_every=1)
        assert isinstance(user.react(make_result([])), Continue)

    def test_argument_validation(self):
        metric_set = cloud_metric_set()
        with pytest.raises(ValueError):
            BoundTighteningUser(metric_set, tighten_every=0)
        with pytest.raises(ValueError):
            BoundTighteningUser(metric_set, factor=1.5)
        with pytest.raises(ValueError):
            BoundTighteningUser(metric_set, initial_quantile=0.0)


class TestBoundRelaxingUser:
    def test_relaxes_once_after_threshold(self):
        user = BoundRelaxingUser(relax_after=2, factor=10.0)
        bounds = CostVector([1.0, float("inf")])
        assert isinstance(user.react(make_result([(1, 1)], iteration=1, bounds=bounds)), Continue)
        action = user.react(make_result([(1, 1)], iteration=2, bounds=bounds))
        assert isinstance(action, ChangeBounds)
        assert action.bounds[0] == pytest.approx(10.0)
        assert action.bounds[1] == float("inf")
        assert isinstance(user.react(make_result([(1, 1)], iteration=3, bounds=bounds)), Continue)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            BoundRelaxingUser(relax_after=0)
        with pytest.raises(ValueError):
            BoundRelaxingUser(factor=1.0)


class TestPlanSelectingUser:
    def test_waits_for_resolution_and_frontier_size(self):
        chooser = weighted_sum_chooser(cloud_metric_set(), {"execution_time": 1.0})
        user = PlanSelectingUser(chooser, min_resolution=1, min_frontier_size=2)
        early = user.react(make_result([(1, 1), (2, 2)], resolution=0))
        assert isinstance(early, Continue)
        small = user.react(make_result([(1, 1)], resolution=1))
        assert isinstance(small, Continue)
        ready = user.react(make_result([(1, 1), (2, 2)], resolution=1))
        assert isinstance(ready, SelectPlan)

    def test_weighted_sum_chooser_picks_minimum(self):
        metric_set = cloud_metric_set()
        chooser = weighted_sum_chooser(metric_set, {"execution_time": 1.0, "monetary_fees": 10.0})
        arena = PlanArena(metric_set.dimensions)
        plans = [
            scan_plan(arena, [1.0, 5.0], table="a"),
            scan_plan(arena, [10.0, 0.1], table="b"),
        ]
        assert chooser(plans).table == "b"

    def test_weighted_sum_chooser_validation(self):
        metric_set = cloud_metric_set()
        with pytest.raises(ValueError):
            weighted_sum_chooser(metric_set, {"execution_time": -1.0})
        with pytest.raises(ValueError):
            weighted_sum_chooser(metric_set, {"execution_time": 0.0})
        with pytest.raises(KeyError):
            weighted_sum_chooser(metric_set, {"latency": 1.0})
        chooser = weighted_sum_chooser(metric_set, {"execution_time": 1.0})
        with pytest.raises(ValueError):
            chooser([])
