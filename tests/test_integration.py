"""End-to-end integration tests across modules on real TPC-H blocks.

These tests wire the full stack together exactly as a downstream user would --
TPC-H statistics, the default cost model, the incremental optimizer, the
baselines and the interactive layer -- and check cross-cutting properties that
the per-module unit tests cannot see.
"""

import pytest

from repro import (
    CardinalityEstimator,
    ChangeBounds,
    ExhaustiveParetoOptimizer,
    MultiObjectiveCostModel,
    PlanFactory,
    ResolutionSchedule,
    open_planner,
    paper_metric_set,
)
from repro.costs.pareto import approximation_error, pareto_filter
from repro.api import Budget
from repro.interactive import PlanSelectingUser, weighted_sum_chooser
from repro.plans.operators import OperatorRegistry
from repro.workloads import tpch_queries, tpch_statistics


def small_registry():
    return OperatorRegistry(
        parallelism_levels=(1, 2),
        sampling_rates=(0.1,),
        join_algorithms=("hash_join", "nested_loop_join"),
    )


def make_factory(query):
    return PlanFactory(
        estimator=CardinalityEstimator(tpch_statistics(), query.join_graph),
        cost_model=MultiObjectiveCostModel(paper_metric_set()),
        operators=small_registry(),
    )


def block(name):
    return next(q for q in tpch_queries() if q.name == name)


def final_frontier(query, factory, schedule, algorithm="iama"):
    """Cost vectors of the last frontier of a drained session."""
    session = open_planner(algorithm, query, factory, schedule)
    session.run()
    return session.last_update.frontier_costs


@pytest.fixture(scope="module")
def q03():
    return block("tpch_q03")


@pytest.fixture(scope="module")
def q10():
    return block("tpch_q10")


class TestTpchEndToEnd:
    def test_full_sweep_guarantee_on_q03(self, q03):
        schedule = ResolutionSchedule(levels=4, target_precision=1.02, precision_step=0.2)
        frontier = final_frontier(q03, make_factory(q03), schedule)

        exact = ExhaustiveParetoOptimizer(q03, make_factory(q03))
        exact.optimize()
        exact_frontier = [p.cost for p in exact.frontier()]

        guarantee = schedule.guaranteed_precision(q03.table_count)
        assert approximation_error(frontier, exact_frontier) <= guarantee + 1e-9

    def test_frontier_contains_distinct_tradeoffs(self, q03):
        schedule = ResolutionSchedule(levels=3, target_precision=1.01, precision_step=0.05)
        non_dominated = pareto_filter(final_frontier(q03, make_factory(q03), schedule))
        # Sampling and parallelism must surface genuinely different tradeoffs.
        assert len(non_dominated) >= 3
        metric_set = paper_metric_set()
        precision_values = {
            metric_set.component(c, "precision_loss") for c in non_dominated
        }
        cores_values = {metric_set.component(c, "reserved_cores") for c in non_dominated}
        assert len(precision_values) > 1
        assert len(cores_values) > 1

    def test_all_algorithms_agree_within_guarantee_on_q10(self, q10):
        schedule = ResolutionSchedule(levels=3, target_precision=1.05, precision_step=0.3)
        guarantee = schedule.guaranteed_precision(q10.table_count)

        iama = final_frontier(q10, make_factory(q10), schedule)
        memo = final_frontier(q10, make_factory(q10), schedule, "memoryless")
        shot = final_frontier(q10, make_factory(q10), schedule, "oneshot")

        assert approximation_error(iama, memo) <= guarantee + 1e-9
        assert approximation_error(iama, shot) <= guarantee + 1e-9
        assert approximation_error(memo, iama) <= guarantee + 1e-9

    def test_incremental_reuse_across_bound_changes(self, q10):
        metric_set = paper_metric_set()
        schedule = ResolutionSchedule(levels=4, target_precision=1.02, precision_step=0.2)
        factory = make_factory(q10)
        loop = open_planner("iama", q10, factory, schedule)
        loop.step()
        loop.step()

        frontier = loop.history[-1].frontier_costs
        time_index = metric_set.index_of("execution_time")
        median = sorted(cost[time_index] for cost in frontier)[len(frontier) // 2]
        bounds = metric_set.unbounded_vector().with_component(time_index, median)
        # The change is applied after this iteration (Algorithm 1 order).
        loop.step(ChangeBounds(bounds))
        built_before = factory.counters.total_plans_built

        # The next invocation runs under the tightened bounds at resolution 0:
        # everything it needs was generated before, so no new plans are built
        # and the visualized frontier respects the new bound.
        bounded = loop.step()
        assert bounded.invocation.resolution == 0
        assert factory.counters.total_plans_built == built_before
        assert all(cost[time_index] <= median for cost in bounded.frontier_costs)

    def test_interactive_session_selects_a_plan_on_tpch(self, q03):
        metric_set = paper_metric_set()
        schedule = ResolutionSchedule(levels=4, target_precision=1.01, precision_step=0.05)
        # The precision weight must outweigh the execution-time scale (~1e5
        # time units for exact plans on this block) so that the user model
        # represents someone who insists on an exact result.
        chooser = weighted_sum_chooser(
            metric_set, {"execution_time": 1.0, "precision_loss": 1e7}
        )
        session = open_planner(
            "iama",
            q03,
            make_factory(q03),
            schedule,
            continuous=True,
            budget=Budget(max_invocations=6),
        )
        session.run(user=PlanSelectingUser(chooser, min_resolution=1))
        selected = session.selected_plan
        assert selected is not None
        assert selected.tables == q03.tables
        # The heavy precision weight steers the choice towards exact plans.
        assert metric_set.component(selected.cost, "precision_loss") <= 0.5

    def test_factory_counters_are_consistent_after_everything(self, q03):
        factory = make_factory(q03)
        schedule = ResolutionSchedule(levels=3, target_precision=1.05, precision_step=0.3)
        loop = open_planner("iama", q03, factory, schedule)
        loop.run()
        counters = loop.driver.optimizer.state.counters
        assert counters.plans_generated == factory.counters.total_plans_built
        assert counters.prune_calls >= counters.plans_generated
