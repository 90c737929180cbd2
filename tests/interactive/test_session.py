"""User models driving the Algorithm-1 loop through ``PlannerSession.run``."""

from repro.api.request import Budget
from repro.api.schema import FINISH_INVOCATION_CAP, FINISH_SELECTED
from repro.api.session import open_planner
from repro.core.control import ChangeBounds, Continue
from repro.core.resolution import ResolutionSchedule
from repro.interactive.user_models import (
    BoundRelaxingUser,
    BoundTighteningUser,
    PlanSelectingUser,
    UserModel,
    weighted_sum_chooser,
)
from tests.conftest import assert_each_join_built_once, build_chain_query, build_factory


def make_session(levels=3, iterations=None, bounds=None):
    """An interactive ``iama`` session: it keeps refining at the maximal
    resolution until a plan is selected or ``iterations`` invocations ran."""
    query = build_chain_query()
    factory = build_factory(query)
    schedule = ResolutionSchedule(levels=levels, target_precision=1.05, precision_step=0.3)
    budget = Budget(max_invocations=iterations) if iterations is not None else None
    return open_planner(
        "iama", query, factory, schedule, bounds=bounds, continuous=True, budget=budget
    )


def sweep(session):
    """What each update showed: resolution, bounds and frontier costs."""
    return [
        (update.invocation.resolution, update.invocation.bounds, update.frontier_costs)
        for update in session.history
    ]


def recording(user):
    """``user`` plus the list of actions it returned, in order."""
    actions = []

    def react(update):
        action = user(update)
        actions.append(action)
        return action

    return react, actions


def chain_metric_set():
    return build_factory(build_chain_query()).metric_set


class TestSession:
    def test_passive_session_records_full_sweep(self):
        session = make_session(levels=3, iterations=3)
        session.run(user=UserModel())
        assert session.selected_plan is None
        assert session.finish_reason == FINISH_INVOCATION_CAP
        assert [update.invocation.index for update in session.history] == [1, 2, 3]
        assert [update.invocation.resolution for update in session.history] == [0, 1, 2]

    def test_user_model_never_steers(self):
        react, actions = recording(UserModel())
        session = make_session(levels=2, iterations=2)
        session.run(user=react)
        assert len(actions) == 2
        assert all(isinstance(action, Continue) for action in actions)
        assert not session.steered

    def test_no_user_runs_like_the_passive_user_model(self):
        passive, default = make_session(iterations=4), make_session(iterations=4)
        passive.run(user=UserModel())
        default.run()
        assert sweep(default) == sweep(passive)

    def test_step_records_single_update(self):
        session = make_session()
        update = session.step()
        assert update.invocation.index == 1
        assert len(update.frontier) > 0
        assert session.history == [update]

    def test_plan_selecting_user_terminates_session(self):
        chooser = weighted_sum_chooser(chain_metric_set(), {"execution_time": 1.0})
        session = make_session(levels=4, iterations=10)
        session.run(user=PlanSelectingUser(chooser, min_resolution=1))
        assert session.selected_plan is not None
        assert session.finish_reason == FINISH_SELECTED
        assert len(session.history) < 10

    def test_bound_tightening_user_changes_bounds(self):
        react, actions = recording(
            BoundTighteningUser(chain_metric_set(), "execution_time", tighten_every=1)
        )
        session = make_session(levels=4, iterations=4)
        session.run(user=react)
        assert any(isinstance(action, ChangeBounds) for action in actions)
        # A bounds change resets the visualized resolution to zero afterwards.
        change_index = next(
            i for i, action in enumerate(actions) if isinstance(action, ChangeBounds)
        )
        history = session.history
        if change_index + 1 < len(history):
            assert history[change_index + 1].invocation.resolution == 0
            assert history[change_index + 1].invocation.bounds == (
                actions[change_index].bounds
            )

    def test_elapsed_time_is_monotone(self):
        session = make_session(levels=3, iterations=3)
        session.run(user=UserModel())
        elapsed = [update.elapsed_seconds for update in session.history]
        assert all(later >= earlier for earlier, later in zip(elapsed, elapsed[1:]))

    def test_plan_selecting_user_selection_comes_from_the_frontier(self):
        metric_set = chain_metric_set()
        chooser = weighted_sum_chooser(metric_set, {"execution_time": 1.0})
        session = make_session(levels=4, iterations=10)
        session.run(user=PlanSelectingUser(chooser, min_resolution=1))
        selected = session.selected_plan
        assert selected is not None
        final_costs = session.last_update.frontier_costs
        assert selected.cost in final_costs
        # The weighted-sum chooser picked the cheapest execution time.
        time_index = metric_set.index_of("execution_time")
        assert selected.cost[time_index] == min(c[time_index] for c in final_costs)

    def test_run_keeps_iterating_at_max_resolution(self):
        # Algorithm 1 never stops on its own: with a passive user the loop
        # keeps invoking at the maximal resolution until the budget is spent.
        session = make_session(levels=2, iterations=5)
        session.run(user=UserModel())
        assert [update.invocation.resolution for update in session.history] == [
            0, 1, 1, 1, 1,
        ]
        # A late-reacting user model therefore still gets its turn.
        session.resume(Budget(max_invocations=6))
        session.step()
        assert len(session.history) == 6
        assert session.history[-1].invocation.resolution == 1

    def test_bound_relaxing_user_reopens_out_of_bounds_plans(self):
        # Example 3 of the paper: plans kept as out-of-bounds candidates come
        # back once the user relaxes a tight bound, and no join is built twice.
        metric_set = chain_metric_set()
        time_index = metric_set.index_of("execution_time")
        tight = metric_set.unbounded_vector().with_component(time_index, 2000.0)
        session = make_session(levels=3, iterations=4, bounds=tight)
        react, actions = recording(BoundRelaxingUser(relax_after=2, factor=10.0))
        session.run(user=react)
        assert [type(action).__name__ for action in actions] == [
            "Continue", "ChangeBounds", "Continue", "Continue",
        ]
        before, after = session.history[1], session.history[2]
        assert after.invocation.resolution == 0
        assert after.invocation.bounds[time_index] == 20000.0
        assert all(cost[time_index] <= 2000.0 for cost in before.frontier_costs)
        assert any(cost[time_index] > 2000.0 for cost in after.frontier_costs)
        assert_each_join_built_once(session.driver.factory)
