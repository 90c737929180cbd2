"""Unit tests for :mod:`repro.baselines.memoryless`."""

import pytest

from repro.api import planner_registry
from repro.baselines.memoryless import MemorylessAnytimeOptimizer
from repro.core.resolution import ResolutionSchedule
from tests.conftest import build_chain_query, build_factory


def make_memoryless(levels=3):
    query = build_chain_query()
    factory = build_factory(query)
    schedule = ResolutionSchedule(levels=levels, target_precision=1.05, precision_step=0.3)
    return MemorylessAnytimeOptimizer(query, factory, schedule), factory, schedule


def sweep(optimizer):
    """One from-scratch invocation per resolution level (0 .. r_M)."""
    return [
        optimizer.step(resolution=resolution)
        for resolution in optimizer.schedule.resolutions()
    ]


class TestMemoryless:
    def test_sweep_runs_once_per_resolution_level(self):
        optimizer, factory, schedule = make_memoryless(levels=4)
        reports = sweep(optimizer)
        assert len(reports) == 4
        assert [r.alpha for r in reports] == pytest.approx(schedule.factors())

    def test_session_sweep_runs_once_per_resolution_level(self):
        query = build_chain_query()
        schedule = ResolutionSchedule(levels=4, target_precision=1.05, precision_step=0.3)
        session = planner_registry().open(
            "memoryless", query, build_factory(query), schedule
        )
        result = session.run()
        assert [inv.resolution for inv in result.invocations] == [0, 1, 2, 3]
        assert [inv.alpha for inv in result.invocations] == pytest.approx(
            schedule.factors()
        )

    def test_each_invocation_regenerates_plans(self):
        optimizer, factory, _ = make_memoryless(levels=3)
        reports = sweep(optimizer)
        total_generated = sum(r.plans_generated for r in reports)
        assert factory.counters.total_plans_built == total_generated
        # From scratch each time: strictly more total work than a single run.
        assert total_generated > reports[-1].plans_generated

    def test_explicit_resolution_override(self):
        optimizer, factory, schedule = make_memoryless(levels=3)
        report = optimizer.step(resolution=2)
        assert report.alpha == pytest.approx(schedule.alpha(2))

    def test_frontier_of_last_invocation(self):
        optimizer, factory, _ = make_memoryless()
        sweep(optimizer)
        assert optimizer.frontier()
        assert all(p.tables == optimizer.query.tables for p in optimizer.frontier())

    def test_mirrors_incremental_result_quality(self):
        """The memoryless baseline mirrors IAMA's result sets (Section 6.1).

        Generation order inside a table set may differ slightly between the
        two implementations, so the sets are compared by mutual approximate
        coverage at the resolution-0 guarantee instead of exact equality.
        """
        from repro.costs.pareto import approximation_error

        query = build_chain_query()
        schedule = ResolutionSchedule(levels=3, target_precision=1.05, precision_step=0.3)

        factory_a = build_factory(query)
        memoryless = MemorylessAnytimeOptimizer(query, factory_a, schedule)
        sweep(memoryless)
        memoryless_costs = [p.cost for p in memoryless.frontier()]

        factory_b = build_factory(query)
        incremental = planner_registry().open("iama", query, factory_b, schedule)
        incremental.run()
        incremental_costs = incremental.last_update.frontier_costs

        guarantee = schedule.guaranteed_precision(query.table_count)
        assert approximation_error(memoryless_costs, incremental_costs) <= guarantee + 1e-9
        assert approximation_error(incremental_costs, memoryless_costs) <= guarantee + 1e-9
