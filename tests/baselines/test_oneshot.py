"""Unit tests for :mod:`repro.baselines.oneshot`."""

import pytest

from repro.api import planner_registry
from repro.baselines.oneshot import OneShotOptimizer
from repro.core.resolution import ResolutionSchedule
from tests.conftest import build_chain_query, build_factory


def make_oneshot(levels=5):
    query = build_chain_query()
    factory = build_factory(query)
    schedule = ResolutionSchedule(levels=levels, target_precision=1.05, precision_step=0.3)
    return OneShotOptimizer(query, factory, schedule), factory, schedule


class TestOneShot:
    def test_single_invocation_at_target_precision(self):
        query = build_chain_query()
        schedule = ResolutionSchedule(levels=5, target_precision=1.05, precision_step=0.3)
        session = planner_registry().open("oneshot", query, build_factory(query), schedule)
        result = session.run()
        assert len(result.invocations) == 1
        assert result.invocations[0].alpha == pytest.approx(schedule.target_precision)
        assert result.invocations[0].resolution == schedule.max_resolution

    def test_default_bounds_are_unbounded(self):
        optimizer, factory, schedule = make_oneshot()
        report = optimizer.optimize()
        assert not report.bounds.is_finite()

    def test_number_of_levels_does_not_matter(self):
        one_level, factory_a, _ = make_oneshot(levels=1)
        many_levels, factory_b, _ = make_oneshot(levels=20)
        report_one = one_level.optimize()
        report_many = many_levels.optimize()
        assert report_one.plans_generated == report_many.plans_generated
        assert report_one.frontier_size == report_many.frontier_size

    def test_frontier_contains_complete_plans(self):
        optimizer, factory, _ = make_oneshot()
        optimizer.optimize()
        assert optimizer.frontier()
        assert all(p.tables == optimizer.query.tables for p in optimizer.frontier())

    def test_reports_accumulate(self):
        optimizer, factory, _ = make_oneshot()
        optimizer.optimize()
        optimizer.optimize()
        assert len(optimizer.reports) == 2

    def test_explicit_bounds_are_used(self):
        optimizer, factory, _ = make_oneshot()
        bounds = factory.metric_set.unbounded_vector().with_component(0, 1.0)
        report = optimizer.optimize(bounds)
        assert report.bounds == bounds
