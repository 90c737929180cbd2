"""Tests of Algorithm 1, the main control loop, as :class:`PlannerSession` runs it.

:mod:`repro.core.control` defines the user actions; the loop that applies
them is the planner session, opened here on the ``iama`` planner.
"""

from repro.api import Budget, open_planner
from repro.core.control import (
    ChangeBounds,
    Continue,
    SelectPlan,
)
from repro.core.resolution import ResolutionSchedule
from tests.conftest import build_chain_query, build_factory


def make_loop(levels=3, continuous=True, budget=None):
    query = build_chain_query()
    factory = build_factory(query)
    schedule = ResolutionSchedule(levels=levels, target_precision=1.05, precision_step=0.3)
    session = open_planner(
        "iama", query, factory, schedule, budget=budget, continuous=continuous
    )
    return session, factory


class TestStep:
    def test_initial_state(self):
        loop, factory = make_loop()
        assert loop.resolution == 0
        assert loop.iteration == 0
        assert not loop.bounds.is_finite()

    def test_step_produces_frontier_and_advances_resolution(self):
        loop, _ = make_loop()
        update = loop.step()
        assert update.invocation.index == 1
        assert update.invocation.resolution == 0
        assert len(update.frontier) > 0
        assert loop.resolution == 1

    def test_resolution_saturates_at_max(self):
        loop, _ = make_loop(levels=2)
        loop.step()
        loop.step()
        loop.step()
        assert loop.resolution == 1
        assert loop.at_max_resolution
        assert [u.invocation.resolution for u in loop.history] == [0, 1, 1]

    def test_history_is_recorded(self):
        loop, _ = make_loop()
        loop.step()
        loop.step()
        assert [u.invocation.index for u in loop.history] == [1, 2]

    def test_bounds_change_resets_resolution(self):
        loop, factory = make_loop()
        loop.step()
        assert loop.resolution == 1
        new_bounds = factory.metric_set.unbounded_vector().with_component(0, 1e9)
        loop.step(ChangeBounds(new_bounds))
        assert loop.resolution == 0
        assert loop.bounds == new_bounds

    def test_select_plan_records_selection(self):
        loop, _ = make_loop()
        update = loop.step()
        chosen = update.plans[0]
        loop.step(SelectPlan(plan=chosen))
        assert loop.selected_plan is chosen
        assert loop.finish_reason == "selected"

    def test_run_hands_every_update_to_the_user(self):
        seen = []
        loop, _ = make_loop(continuous=False)
        loop.run(user=seen.append)
        assert [u.invocation.index for u in seen] == [1, 2, 3]

    def test_frontier_costs_match_plans(self):
        loop, _ = make_loop()
        update = loop.step()
        assert update.frontier_costs == [plan.cost for plan in update.plans]
        assert [summary.cost for summary in update.frontier] == update.frontier_costs


class TestRun:
    def test_run_without_user_performs_one_sweep(self):
        loop, _ = make_loop(levels=3, continuous=False)
        result = loop.run()
        assert result.selected_plan is None
        assert result.finish_reason == "exhausted"
        assert loop.iteration == 3

    def test_run_with_plan_selection_stops_early(self):
        loop, _ = make_loop(levels=3)

        def user(update):
            if update.invocation.index == 2:
                return SelectPlan(chooser=lambda frontier: frontier[0])
            return Continue()

        result = loop.run(user=user)
        assert loop.selected_plan is not None
        assert loop.iteration == 2
        assert result.finish_reason == "selected"
        assert result.selected_plan.cost == loop.selected_plan.cost

    def test_run_respects_max_iterations(self):
        loop, _ = make_loop(levels=3, budget=Budget(max_invocations=1))
        result = loop.run()
        assert loop.iteration == 1
        assert result.finish_reason == "invocation_cap"

    def test_run_with_bound_changes(self):
        loop, factory = make_loop(levels=3, budget=Budget(max_invocations=3))
        issued = []

        def user(update):
            if update.invocation.index == 1:
                bounds = factory.metric_set.unbounded_vector().with_component(0, 1e9)
                issued.append(bounds)
                return ChangeBounds(bounds)
            return Continue()

        loop.run(user=user)
        assert loop.history[1].invocation.bounds == issued[0]
        assert loop.history[1].invocation.resolution == 0

    def test_resolution_sweep_covers_every_level(self):
        loop, _ = make_loop(levels=4, continuous=False)
        updates = list(loop.updates())
        assert [u.invocation.resolution for u in updates] == [0, 1, 2, 3]


class TestAnytimeBehaviour:
    def test_frontier_never_shrinks_during_refinement(self):
        loop, _ = make_loop(levels=4, continuous=False)
        sizes = [len(update.frontier) for update in loop.updates()]
        assert all(later >= earlier for earlier, later in zip(sizes, sizes[1:]))

    def test_selected_plan_resolution_from_chooser(self):
        loop, factory = make_loop()
        update = loop.step()
        metric_index = 0
        action = SelectPlan(
            chooser=lambda frontier: min(frontier, key=lambda p: p.cost[metric_index])
        )
        resolved = action.resolve(list(update.plans))
        assert resolved is not None
        assert resolved.cost[0] == min(cost[0] for cost in update.frontier_costs)

    def test_select_plan_resolve_empty_frontier(self):
        action = SelectPlan(chooser=lambda frontier: frontier[0])
        assert action.resolve([]) is None

    def test_select_plan_concrete_plan_takes_precedence_over_chooser(self):
        loop, _ = make_loop()
        plans = list(loop.step().plans)
        assert len(plans) >= 2
        action = SelectPlan(plan=plans[-1], chooser=lambda frontier: frontier[0])
        assert action.resolve(plans) is plans[-1]

    def test_select_plan_chooser_receives_the_visualized_frontier(self):
        loop, _ = make_loop()
        plans = list(loop.step().plans)
        seen = []

        def chooser(frontier):
            seen.extend(frontier)
            return frontier[0]

        assert SelectPlan(chooser=chooser).resolve(plans) is plans[0]
        assert seen == plans

    def test_select_plan_without_plan_or_chooser_resolves_to_none(self):
        loop, _ = make_loop()
        plans = list(loop.step().plans)
        assert SelectPlan().resolve(plans) is None
