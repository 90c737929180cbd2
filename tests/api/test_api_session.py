"""Tests for the planner session: streaming, steering, budgets."""

import math

import pytest

from repro.api import PLANNERS, Budget, OptimizeRequest, open_planner, open_session
from repro.api.schema import (
    FINISH_DEADLINE,
    FINISH_EXHAUSTED,
    FINISH_INVOCATION_CAP,
    FINISH_SELECTED,
    FINISH_TARGET_ALPHA,
)
from repro.core.control import ChangeBounds, Continue, SelectPlan
from repro.core.resolution import ResolutionSchedule
from repro.costs.dominance import dominates
from repro.costs.vector import CostVector
from tests.conftest import build_chain_query, build_factory


def make_session(algorithm="iama", levels=3, budget=None, bounds=None, continuous=False):
    query = build_chain_query()
    factory = build_factory(query)
    schedule = ResolutionSchedule(levels=levels, target_precision=1.05, precision_step=0.3)
    return open_planner(
        algorithm,
        query=query,
        factory=factory,
        schedule=schedule,
        budget=budget,
        bounds=bounds,
        continuous=continuous,
    )


class TestStreaming:
    def test_full_sweep_streams_one_update_per_level(self):
        session = make_session(levels=3)
        updates = list(session.updates())
        assert [u.invocation.resolution for u in updates] == [0, 1, 2]
        assert [u.invocation.index for u in updates] == [1, 2, 3]
        assert session.finish_reason == FINISH_EXHAUSTED
        assert all(u.algorithm == "iama" for u in updates)

    def test_only_the_latest_history_entry_keeps_live_plans(self):
        # A DP run's plans live in its own scratch arena, so plans kept by
        # every entry would keep every run's arena alive.
        session = make_session("memoryless")
        updates = list(session.updates())
        history = session.history
        assert history == updates
        assert [bool(update.plans) for update in history] == [False, False, True]
        assert all(update.plans for update in updates)
        assert session.frontier_plans == updates[-1].plans

    def test_frontier_never_shrinks_for_passive_consumer(self):
        session = make_session(levels=4)
        sizes = [len(u.frontier) for u in session.updates()]
        assert sizes == sorted(sizes)

    def test_frontier_refinement_is_monotone(self):
        # Every tradeoff visualized at a coarser resolution stays dominated by
        # (or equal to) something in the finer frontier.
        session = make_session(levels=3)
        updates = list(session.updates())
        for earlier, later in zip(updates, updates[1:]):
            for cost in earlier.frontier_costs:
                assert any(
                    dominates(other, cost) for other in later.frontier_costs
                )

    def test_advance_after_finish_raises(self):
        session = make_session(levels=1)
        session.run()
        with pytest.raises(RuntimeError, match="finished"):
            session.advance()

    def test_single_invocation_planners_finish_after_one_update(self):
        for algorithm in ("oneshot", "exhaustive", "single_objective"):
            session = make_session(algorithm=algorithm, levels=3)
            updates = list(session.updates())
            assert len(updates) == 1
            assert session.finish_reason == FINISH_EXHAUSTED

    def test_elapsed_seconds_is_monotone(self):
        session = make_session(levels=3)
        elapsed = [u.elapsed_seconds for u in session.updates()]
        assert elapsed == sorted(elapsed)

    def test_continuous_session_keeps_refining_at_max_resolution(self):
        # Algorithm 1 taken literally: r <- min(r_M, r + 1), the loop only
        # ends on selection or budget -- interactive sessions use this mode.
        session = make_session(levels=2, continuous=True)
        for _ in range(5):
            update = session.step()
        assert not session.finished
        assert update.invocation.resolution == 1
        assert session.iteration == 5


class TestBudgets:
    def test_zero_deadline_still_admits_one_invocation(self):
        session = make_session(levels=5, budget=Budget(deadline_seconds=0.0))
        result = session.run()
        assert len(result.invocations) == 1
        assert result.finish_reason == FINISH_DEADLINE
        assert result.frontier_size > 0

    def test_invocation_cap(self):
        session = make_session(levels=5, budget=Budget(max_invocations=2))
        result = session.run()
        assert len(result.invocations) == 2
        assert result.finish_reason == FINISH_INVOCATION_CAP

    def test_target_alpha_stops_the_refinement_early(self):
        session = make_session(levels=5, budget=Budget(target_alpha=1.2))
        result = session.run()
        assert result.finish_reason == FINISH_TARGET_ALPHA
        assert result.invocations[-1].alpha <= 1.2
        assert len(result.invocations) < 5

    def test_target_alpha_defers_to_a_queued_bound_change(self):
        # Reaching the target precision under the OLD bounds must not end the
        # session when the user just changed them: the new bounds have no
        # frontier at any precision yet.
        session = make_session(levels=2, budget=Budget(target_alpha=2.0))
        first = session.advance()
        assert first.invocation.alpha <= 2.0
        bound = sorted(c[0] for c in first.frontier_costs)[-1]
        session.apply(ChangeBounds(first.invocation.bounds.with_component(0, bound)))
        assert not session.finished
        session.step()  # optimized under the new bounds; now alpha may finish it
        assert session.finish_reason == FINISH_TARGET_ALPHA

    def test_exhaustion_is_not_relabelled_by_budget_limits(self):
        # levels=2 with a cap of exactly 2: the sweep completes at the same
        # apply() that hits the cap; the sweep's own reason wins.
        session = make_session(levels=2, budget=Budget(max_invocations=2))
        result = session.run()
        assert result.finish_reason == FINISH_EXHAUSTED

    def test_selection_wins_over_budget(self):
        session = make_session(levels=3, budget=Budget(max_invocations=1))
        update = session.advance()
        session.apply(SelectPlan(plan=update.plans[0]))
        assert session.finish_reason == FINISH_SELECTED
        assert session.selected_plan is update.plans[0]


class TestSteering:
    def test_change_bounds_resets_the_resolution(self):
        session = make_session(levels=3)
        first = session.advance()
        time_bound = sorted(c[0] for c in first.frontier_costs)[-1]
        session.apply(ChangeBounds(first.invocation.bounds.with_component(0, time_bound)))
        assert session.resolution == 0
        second = session.advance()
        assert second.invocation.resolution == 0
        assert all(cost[0] <= time_bound for cost in second.frontier_costs)

    def test_steer_queues_for_the_next_apply(self):
        session = make_session(levels=3)
        collected = []
        for update in session.updates():
            collected.append(update)
            if update.invocation.index == 1:
                session.select(chooser=lambda plans: plans[0])
        assert session.finish_reason == FINISH_SELECTED
        assert session.selected_plan is collected[0].plans[0]

    def test_explicit_action_discards_a_queued_steer(self):
        # steer() carries a reaction to "the next apply"; an explicit action
        # supersedes it, so the stale steer must not fire iterations later.
        session = make_session(levels=4)
        first = session.advance()
        tight = sorted(c[0] for c in first.frontier_costs)[0]
        session.steer(ChangeBounds(first.invocation.bounds.with_component(0, tight)))
        session.apply(Continue())           # the user reconsidered
        assert session.resolution == 1      # refined, bounds unchanged
        session.step()                      # plain step: queue must be empty
        assert session.resolution == 2
        assert session.bounds == first.invocation.bounds  # bounds untouched

    def test_bounds_with_wrong_dimensionality_are_rejected(self):
        session = make_session(levels=2)
        session.advance()
        with pytest.raises(ValueError, match="components"):
            session.apply(ChangeBounds(CostVector([1.0])))

    def test_bound_change_lets_single_invocation_planners_reoptimize(self):
        session = make_session(algorithm="oneshot", levels=2)
        first = session.advance()
        tight = sorted(c[0] for c in first.frontier_costs)[0]
        session.apply(ChangeBounds(first.invocation.bounds.with_component(0, tight)))
        assert not session.finished
        second = session.step()
        assert all(cost[0] <= tight for cost in second.frontier_costs)
        assert session.finish_reason == FINISH_EXHAUSTED


class TestBounds:
    #: ``tpch:q03`` capped at half the precision loss: the cheapest plan by
    #: execution time loses more than that, so it lies outside the bounds.
    BOUNDS = CostVector([math.inf, math.inf, 0.5])

    @pytest.mark.parametrize("algorithm", PLANNERS)
    def test_every_frontier_lies_within_the_request_bounds(self, algorithm):
        request = OptimizeRequest(
            workload="tpch:q03",
            algorithm=algorithm,
            scale="tiny",
            levels=3,
            bounds=self.BOUNDS,
        )
        result = open_session(request).run()
        for summary in result.frontier:
            assert dominates(summary.cost, self.BOUNDS), summary.cost

    def test_a_steered_single_objective_session_keeps_its_plan(self):
        request = OptimizeRequest(
            workload="tpch:q03", algorithm="single_objective", scale="tiny"
        )
        session = open_session(request)
        counters = session.driver.factory.counters
        (plan,) = session.advance().plans
        built = counters.total_plans_built
        # Outside the new bounds the kept plan is filtered out; at bounds
        # equal to its own cost it is returned as is.  Neither run rebuilds.
        for bounds, expected in ((self.BOUNDS, ()), (plan.cost, (plan,))):
            session.apply(ChangeBounds(bounds))
            update = session.advance()
            assert [id(kept) for kept in update.plans] == [id(p) for p in expected]
            assert counters.total_plans_built == built
            assert update.invocation.details["plans_generated"] == 0

    @pytest.mark.parametrize(
        "workload", ("tpch:q03", "gen:chain:4:0", "gen:star:5:1", "gen:clique:4:2")
    )
    def test_a_steered_single_objective_session_answers_like_a_fresh_one(
        self, workload
    ):
        # The kept plan does not depend on the bounds, so each bounds change
        # must yield what a session opened at those bounds returns.
        request = OptimizeRequest(
            workload=workload, algorithm="single_objective", scale="tiny"
        )
        session = open_session(request)
        (plan,) = session.advance().plans
        excluding = plan.cost.with_component(0, plan.cost[0] / 2)
        unbounded = CostVector.infinite(len(plan.cost))
        kept = []
        for bounds in (excluding, plan.cost, unbounded):
            session.apply(ChangeBounds(bounds))
            steered = [tuple(p.cost) for p in session.advance().plans]
            fresh = open_session(request.with_overrides(bounds=bounds)).run()
            assert steered == [tuple(s.cost) for s in fresh.frontier], bounds
            kept.append(len(steered))
        assert kept == [0, 1, 1]


class TestResult:
    def test_result_reflects_the_session(self):
        session = make_session(levels=2)
        result = session.run()
        assert result.algorithm == "iama"
        assert result.query_name == session.query.name
        assert result.table_count == 3
        assert len(result.invocations) == 2
        assert result.total_seconds == sum(result.durations_seconds)
        assert result.plans_generated > 0
        assert result.frontier_size == result.invocations[-1].frontier_size

    def test_open_session_resolves_requests_end_to_end(self):
        request = OptimizeRequest(
            workload="gen:star:3:5",
            algorithm="memoryless",
            scale="tiny",
            levels=2,
        )
        result = open_session(request).run()
        assert result.algorithm == "memoryless"
        assert result.table_count == 3
        assert result.finish_reason == FINISH_EXHAUSTED
        assert math.isinf(result.invocations[0].bounds[0])

    def test_single_objective_respects_the_requested_objective(self):
        request = OptimizeRequest(
            workload="gen:chain:3:0",
            algorithm="single_objective",
            scale="tiny",
            levels=1,
            objective="monetary_fees",
            metrics=("execution_time", "monetary_fees"),
        )
        session = open_session(request)
        result = session.run()
        assert session.driver.optimizer.metric_name == "monetary_fees"
        assert result.frontier_size == 1
