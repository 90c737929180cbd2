"""Tests of the ``memoryless`` planner: a from-scratch DP at every level."""

import pytest

from repro.api import open_planner
from repro.core.resolution import ResolutionSchedule
from tests.conftest import build_chain_query, build_factory


def make_memoryless(levels=3):
    query = build_chain_query()
    factory = build_factory(query)
    schedule = ResolutionSchedule(levels=levels, target_precision=1.05, precision_step=0.3)
    return open_planner("memoryless", query, factory, schedule), factory, schedule


class TestMemoryless:
    def test_sweep_runs_once_per_resolution_level(self):
        session, factory, schedule = make_memoryless(levels=4)
        result = session.run()
        assert len(result.invocations) == 4
        assert [inv.alpha for inv in result.invocations] == pytest.approx(
            schedule.factors()
        )

    def test_session_sweep_climbs_every_resolution_level(self):
        session, factory, schedule = make_memoryless(levels=4)
        result = session.run()
        assert [inv.resolution for inv in result.invocations] == [0, 1, 2, 3]
        assert result.finish_reason == "exhausted"

    def test_each_invocation_regenerates_plans(self):
        session, factory, _ = make_memoryless(levels=3)
        result = session.run()
        generated = [inv.details["plans_generated"] for inv in result.invocations]
        assert factory.counters.total_plans_built == sum(generated)
        # From scratch each time: every invocation builds the whole search
        # space again, so the total is strictly more than a single run.
        assert sum(generated) > generated[-1]
        assert all(count > 0 for count in generated)

    def test_explicit_resolution_override(self):
        session, factory, schedule = make_memoryless(levels=3)
        step = session.driver.invoke(factory.metric_set.unbounded_vector(), 2)
        assert step.alpha == pytest.approx(schedule.alpha(2))

    def test_frontier_of_last_invocation(self):
        session, factory, _ = make_memoryless()
        session.run()
        plans = session.frontier_plans
        assert plans
        assert all(p.tables == session.query.tables for p in plans)

    def test_mirrors_incremental_result_quality(self):
        """The memoryless baseline mirrors IAMA's result sets (Section 6.1).

        Generation order inside a table set may differ slightly between the
        two implementations, so the sets are compared by mutual approximate
        coverage at the resolution-0 guarantee instead of exact equality.
        """
        from repro.costs.pareto import approximation_error

        query = build_chain_query()
        schedule = ResolutionSchedule(levels=3, target_precision=1.05, precision_step=0.3)

        memoryless = open_planner("memoryless", query, build_factory(query), schedule)
        memoryless.run()
        memoryless_costs = memoryless.last_update.frontier_costs

        incremental = open_planner("iama", query, build_factory(query), schedule)
        incremental.run()
        incremental_costs = incremental.last_update.frontier_costs

        guarantee = schedule.guaranteed_precision(query.table_count)
        assert approximation_error(memoryless_costs, incremental_costs) <= guarantee + 1e-9
        assert approximation_error(incremental_costs, memoryless_costs) <= guarantee + 1e-9
