"""Tests of the ``oneshot`` planner: one invocation at the target precision."""

import pytest

from repro.api import open_planner
from repro.core.control import ChangeBounds
from repro.core.resolution import ResolutionSchedule
from tests.conftest import build_chain_query, build_factory


def make_oneshot(levels=5, bounds=None):
    query = build_chain_query()
    factory = build_factory(query)
    schedule = ResolutionSchedule(levels=levels, target_precision=1.05, precision_step=0.3)
    session = open_planner("oneshot", query, factory, schedule, bounds=bounds)
    return session, factory, schedule


class TestOneShot:
    def test_single_invocation_at_target_precision(self):
        session, factory, schedule = make_oneshot(levels=5)
        result = session.run()
        assert len(result.invocations) == 1
        assert result.invocations[0].alpha == pytest.approx(schedule.target_precision)
        assert result.invocations[0].resolution == schedule.max_resolution

    def test_default_bounds_are_unbounded(self):
        session, factory, schedule = make_oneshot()
        result = session.run()
        assert not result.invocations[0].bounds.is_finite()

    def test_number_of_levels_does_not_matter(self):
        one_level = make_oneshot(levels=1)[0].run()
        many_levels = make_oneshot(levels=20)[0].run()
        assert one_level.plans_generated == many_levels.plans_generated
        assert one_level.frontier_size == many_levels.frontier_size

    def test_frontier_contains_complete_plans(self):
        session, factory, _ = make_oneshot()
        session.run()
        assert session.frontier_plans
        assert all(p.tables == session.query.tables for p in session.frontier_plans)

    def test_a_bounds_change_reruns_from_scratch(self):
        session, factory, schedule = make_oneshot()
        session.step(ChangeBounds(factory.metric_set.unbounded_vector()))
        session.run()
        first, second = session.history
        assert second.invocation.alpha == pytest.approx(schedule.target_precision)
        assert second.invocation.details["plans_generated"] == (
            first.invocation.details["plans_generated"]
        )
        assert factory.counters.total_plans_built == 2 * (
            first.invocation.details["plans_generated"]
        )

    def test_explicit_bounds_are_used(self):
        bounds = (
            build_factory(build_chain_query())
            .metric_set.unbounded_vector()
            .with_component(0, 1.0)
        )
        session, factory, _ = make_oneshot(bounds=bounds)
        result = session.run()
        assert result.invocations[0].bounds == bounds
