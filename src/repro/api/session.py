"""Planner sessions: the uniform anytime loop over every planner.

A :class:`PlannerSession` is the paper's Algorithm 1 lifted into an API: it
owns the interaction state (cost bounds, resolution level, iteration count),
invokes its planner driver, streams one typed
:class:`~repro.api.schema.FrontierUpdate` per invocation, accepts user
steering (:class:`~repro.core.control.ChangeBounds`,
:class:`~repro.core.control.SelectPlan`) between invocations, enforces the
request :class:`~repro.api.request.Budget`, and finishes with a uniform
:class:`~repro.api.schema.OptimizationResult`.

The session separates *invoking* from *steering* so consumers can react to
what they see, exactly like the interactive interface of Figure 1::

    session = open_session(OptimizeRequest(workload="tpch:q03"))
    for update in session.updates():        # one FrontierUpdate per invocation
        if too_expensive(update.frontier):
            session.steer(ChangeBounds(tighter))
    result = session.result()               # uniform, JSON-serializable

``step(action)`` bundles both phases for scripted drivers; ``run()`` drains
the session to completion.  :func:`open_planner` opens a session of any
planner in :data:`~repro.api.planners.PLANNERS` on live objects (query, plan
factory, resolution schedule) instead of a request.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.api.planners import PlannerDriver, SingleObjectiveDriver, planner
from repro.api.request import (
    Budget,
    OptimizeRequest,
    ResolvedRequest,
    resolve_request,
)
from repro.api.schema import (
    FINISH_DEADLINE,
    FINISH_EXHAUSTED,
    FINISH_IN_PROGRESS,
    FINISH_INVOCATION_CAP,
    FINISH_SELECTED,
    FINISH_TARGET_ALPHA,
    FrontierUpdate,
    InvocationSummary,
    OptimizationResult,
    PlanSummary,
    frontier_summaries,
)
from repro.core.control import ChangeBounds, Continue, SelectPlan, UserAction
from repro.obs import trace as obs_trace
from repro.core.resolution import ResolutionSchedule
from repro.costs.vector import CostVector
from repro.plans.factory import PlanFactory
from repro.plans.plan import Plan
from repro.plans.query import Query

#: The session clock.  Budget deadlines and elapsed times are measured on the
#: monotonic clock, never on wall-clock ``time.time()``: sessions parked and
#: resumed by the planning service (or simply running while NTP steps the
#: system clock) must not over- or under-run their deadline when the
#: wall-clock jumps.  Kept as a module attribute so tests can fake the clock.
_now = time.monotonic

#: Finish reasons a warm-started session may recover from: every budget limit
#: is resumable (a bigger budget simply continues the refinement), whereas a
#: plan selection or an exhausted refinement sweep is final.
RESUMABLE_FINISH_REASONS = (
    FINISH_DEADLINE,
    FINISH_INVOCATION_CAP,
    FINISH_TARGET_ALPHA,
)


class PlannerSession:
    """One optimization session: invoke, stream updates, steer, finish.

    Parameters
    ----------
    driver:
        The planner driver executing invocations; its name and its factory's
        metric set are the session's.
    bounds:
        Initial cost bounds; ``None`` means unbounded.
    budget:
        Work budget; ``None`` means unlimited.
    continuous:
        When false (default), a refining planner's session is *exhausted*
        after it has run at the maximal resolution — the natural end of a
        non-interactive drain.  When true, the session follows Algorithm 1
        literally (``r <- min(r_M, r + 1)``) and keeps accepting invocations
        at the maximal resolution until the user selects a plan or the budget
        runs out; interactive drivers use this mode.
    """

    def __init__(
        self,
        driver: PlannerDriver,
        bounds: Optional[CostVector] = None,
        budget: Optional[Budget] = None,
        continuous: bool = False,
    ):
        self._driver = driver
        self._metric_set = driver.factory.metric_set
        self._schedule = driver.schedule
        self._bounds = (
            bounds if bounds is not None else self._metric_set.unbounded_vector()
        )
        self._budget = budget or Budget()
        self._continuous = continuous
        self._resolution = 0
        self._iteration = 0
        self._history: List[FrontierUpdate] = []
        # The summary of every plan of the session's own arena shown so far.
        self._shown: Dict[Plan, PlanSummary] = {}
        self._queued: Optional[UserAction] = None
        self._finish_reason: Optional[str] = None
        self._selected_plan: Optional[Plan] = None
        self._started: Optional[float] = None
        self._steered = False

    # ------------------------------------------------------------------
    # Read-only state
    # ------------------------------------------------------------------
    @property
    def algorithm(self) -> str:
        return self._driver.name

    @property
    def driver(self) -> PlannerDriver:
        return self._driver

    @property
    def query(self) -> Query:
        return self._driver.query

    @property
    def budget(self) -> Budget:
        return self._budget

    @property
    def bounds(self) -> CostVector:
        """The cost bounds the next invocation will use."""
        return self._bounds

    @property
    def resolution(self) -> int:
        """The resolution level the next invocation will use."""
        return self._resolution

    @property
    def iteration(self) -> int:
        """Number of completed invocations."""
        return self._iteration

    @property
    def at_max_resolution(self) -> bool:
        return self._resolution >= self._schedule.max_resolution

    @property
    def history(self) -> List[FrontierUpdate]:
        """All frontier updates streamed so far.

        Only the latest entry keeps its live ``plans``: a DP driver plans
        each run in a scratch arena, which the plans of every earlier entry
        would keep alive.  An update returned by :meth:`advance` keeps its
        own plans.
        """
        return list(self._history)

    @property
    def last_update(self) -> Optional[FrontierUpdate]:
        return self._history[-1] if self._history else None

    @property
    def frontier_plans(self) -> Tuple[Plan, ...]:
        """Live plan objects of the most recently visualized frontier."""
        return self._history[-1].plans if self._history else ()

    @property
    def selected_plan(self) -> Optional[Plan]:
        return self._selected_plan

    @property
    def finished(self) -> bool:
        return self._finish_reason is not None

    @property
    def finish_reason(self) -> Optional[str]:
        return self._finish_reason

    @property
    def steered(self) -> bool:
        """Whether any non-Continue action was ever applied.

        A steered session's invocation sequence diverges from the pure
        refinement sweep a fresh session would run, so the planning service's
        frontier cache only reuses never-steered sessions.
        """
        return self._steered

    @property
    def resumable(self) -> bool:
        """Whether :meth:`resume` can reopen this session."""
        return self._finish_reason in RESUMABLE_FINISH_REASONS

    # ------------------------------------------------------------------
    # The two phases of one iteration
    # ------------------------------------------------------------------
    def advance(self) -> FrontierUpdate:
        """Run one optimizer invocation and stream its frontier update.

        The steering phase (:meth:`apply`) decides what the *next* invocation
        looks like; a deadline of zero therefore still admits this first
        invocation — an anytime optimizer always has something to show.
        """
        if self.finished:
            raise RuntimeError(
                f"session already finished ({self._finish_reason}); "
                "open a new session to continue"
            )
        if self._started is None:
            self._started = _now()
        resolution = (
            self._resolution
            if self._driver.refines
            else self._schedule.max_resolution
        )
        with obs_trace.span(
            "session.invocation",
            algorithm=self._driver.name,
            query=self._driver.query.name,
            invocation=self._iteration + 1,
            resolution=resolution,
        ) as invocation_span:
            step = self._driver.invoke(self._bounds, resolution)
            invocation_span.set(
                alpha=step.alpha,
                frontier_size=len(step.plans),
                plans_generated=self._driver.factory.counters.total_plans_built,
            )
            self._iteration += 1
            summary = InvocationSummary.from_report(
                step.native,
                index=self._iteration,
                resolution=resolution,
                alpha=step.alpha,
                bounds=self._bounds,
                duration_seconds=step.duration_seconds,
                frontier_size=len(step.plans),
            )
            update = FrontierUpdate(
                algorithm=self._driver.name,
                invocation=summary,
                frontier=self._summaries(step.plans),
                elapsed_seconds=_now() - self._started,
                plans=tuple(step.plans),
            )
            if self._history:
                self._history[-1] = dataclasses.replace(self._history[-1], plans=())
            self._history.append(update)
        return update

    def apply(self, action: Optional[UserAction] = None) -> None:
        """Apply a steering action and the budget, fixing the next invocation.

        With ``action=None`` the queued :meth:`steer` action (or
        :class:`Continue`) is used.  Mirrors Algorithm 1 lines 12-25: plan
        selection ends the session, a bounds change resets the resolution,
        continuing refines it; once a refining planner has run at the maximal
        resolution the session is exhausted.
        """
        if self.finished:
            return
        # An explicit action supersedes (and discards) any queued steer: the
        # queue exists only to carry a reaction forward to "the next apply".
        queued, self._queued = self._queued, None
        if action is None:
            action = queued if queued is not None else Continue()
        if isinstance(action, SelectPlan):
            self._steered = True
            self._selected_plan = action.resolve(list(self.frontier_plans))
            self._finish_reason = FINISH_SELECTED
        elif isinstance(action, ChangeBounds):
            if len(action.bounds) != self._metric_set.dimensions:
                raise ValueError(
                    f"bounds have {len(action.bounds)} components but the "
                    f"metric set has {self._metric_set.dimensions}"
                )
            self._steered = True
            self._bounds = action.bounds
            self._resolution = 0
        else:  # Continue
            if not self._driver.refines:
                self._finish_reason = FINISH_EXHAUSTED
            elif self.at_max_resolution and self._iteration > 0:
                if not self._continuous:
                    self._finish_reason = FINISH_EXHAUSTED
            else:
                self._resolution = self._schedule.next_resolution(self._resolution)
        self._check_budget(action)

    def step(self, action: Optional[UserAction] = None) -> FrontierUpdate:
        """One full iteration: invoke, then apply ``action`` (or the queue)."""
        update = self.advance()
        self.apply(action)
        return update

    # ------------------------------------------------------------------
    # Steering hooks
    # ------------------------------------------------------------------
    def steer(self, action: UserAction) -> None:
        """Queue a steering action, consumed at the next :meth:`apply`."""
        self._queued = action

    def select(
        self,
        plan: Optional[Plan] = None,
        chooser: Optional[Callable[[Sequence[Plan]], Plan]] = None,
    ) -> None:
        """Queue a plan selection (a concrete plan or a frontier chooser)."""
        self.steer(SelectPlan(plan=plan, chooser=chooser))

    def resume(self, budget: Optional[Budget] = None) -> None:
        """Reopen a budget-finished session under a fresh budget (warm start).

        Only budget-induced finish reasons (:data:`RESUMABLE_FINISH_REASONS`)
        can be cleared: a bigger budget simply continues the deterministic
        refinement sweep exactly where it stopped, so the resumed session's
        frontier is bit-identical to a fresh session run under the combined
        budget.  Sessions finished by plan selection or by exhausting the
        resolution schedule cannot be resumed.

        Deadline accounting restarts at the next invocation — the new budget
        pays for new work only, not for the time the session sat parked in
        the planning service's frontier cache.
        """
        if (
            self._finish_reason is not None
            and self._finish_reason not in RESUMABLE_FINISH_REASONS
        ):
            raise RuntimeError(
                f"cannot resume a session finished by {self._finish_reason!r}; "
                f"only {', '.join(RESUMABLE_FINISH_REASONS)} are resumable"
            )
        if budget is not None:
            self._budget = budget
        self._finish_reason = None
        # Restart the deadline/elapsed accounting even when the session never
        # finished (e.g. re-parked after a cancellation): time spent parked
        # must never count against the new budget.
        self._started = None

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------
    def updates(self) -> Iterator[FrontierUpdate]:
        """Stream frontier updates until the session finishes.

        Steering calls made while consuming the iterator take effect at the
        next iteration boundary, exactly like a user reacting to the freshly
        rendered frontier.
        """
        while not self.finished:
            update = self.advance()
            yield update
            self.apply()

    def run(
        self,
        user: Optional[Callable[[FrontierUpdate], Optional[UserAction]]] = None,
    ) -> OptimizationResult:
        """Drain the session and return the uniform result.

        ``user`` is called after every invocation with the frontier update and
        may return a steering action (``None`` behaves like a user that never
        interacts).
        """
        while not self.finished:
            update = self.advance()
            action = user(update) if user is not None else None
            self.apply(action)
        return self.result()

    def result(self) -> OptimizationResult:
        """The uniform session result (finish reason, invocations, frontier)."""
        last = self.last_update
        frontier: Tuple[PlanSummary, ...] = last.frontier if last else ()
        selected = (
            self._summaries((self._selected_plan,))[0]
            if self._selected_plan is not None
            else None
        )
        invocations = tuple(update.invocation for update in self._history)
        return OptimizationResult(
            algorithm=self._driver.name,
            query_name=self._driver.query.name,
            table_count=self._driver.query.table_count,
            metric_names=tuple(self._metric_set.names),
            invocations=invocations,
            frontier=frontier,
            finish_reason=self._finish_reason or FINISH_IN_PROGRESS,
            total_seconds=sum(inv.duration_seconds for inv in invocations),
            plans_generated=self._driver.factory.counters.total_plans_built,
            selected_plan=selected,
        )

    # ------------------------------------------------------------------
    def _summaries(self, plans: Sequence[Plan]) -> Tuple[PlanSummary, ...]:
        """The summaries of ``plans``, reusing those this session has shown.

        Handles are canonical per arena and a plan never changes, so a kept
        summary never goes stale.  Only plans of the session's own arena are
        kept: a DP driver plans each run in a scratch arena whose ids restart
        at 1, and keeping its handles would keep every run's arena alive.
        """
        own = self._driver.factory.arena
        if all(plan.arena is own for plan in plans):
            return frontier_summaries(plans, self._shown)
        return frontier_summaries(plans)

    def _check_budget(self, action: UserAction) -> None:
        """End the session when a budget limit is hit.

        A finish reason already set by the action (selection, exhaustion) is
        never relabelled.  The ``target_alpha`` limit only applies when the
        user did not just change the bounds: a bounds change invalidates the
        visualized frontier, so the precision achieved under the old bounds
        must not end the session before the new bounds were optimized.
        """
        if self.finished:
            return
        budget = self._budget
        if (
            budget.max_invocations is not None
            and self._iteration >= budget.max_invocations
        ):
            self._finish_reason = FINISH_INVOCATION_CAP
            return
        if budget.deadline_seconds is not None and self._started is not None:
            if _now() - self._started >= budget.deadline_seconds:
                self._finish_reason = FINISH_DEADLINE
                return
        if (
            budget.target_alpha is not None
            and self._history
            and not isinstance(action, ChangeBounds)
        ):
            if self._history[-1].invocation.alpha <= budget.target_alpha:
                self._finish_reason = FINISH_TARGET_ALPHA


def open_planner(
    name: str,
    query: Query,
    factory: PlanFactory,
    schedule: ResolutionSchedule,
    bounds: Optional[CostVector] = None,
    budget: Optional[Budget] = None,
    continuous: bool = False,
    **options,
) -> PlannerSession:
    """Open a session of planner ``name`` on live objects.

    ``options`` go to the driver (for example ``respect_orders`` for
    ``iama`` or ``keep_dominated`` for the from-scratch DP planners).  An
    unknown name raises ``KeyError`` listing the planners.
    """
    driver = planner(name)(query, factory, schedule, **options)
    return PlannerSession(
        driver, bounds=bounds, budget=budget, continuous=continuous
    )


def open_resolved(resolved: ResolvedRequest) -> PlannerSession:
    """Open a session for an already resolved request."""
    request = resolved.request
    options = {}
    if request.algorithm == SingleObjectiveDriver.name:
        options["objective"] = request.objective
    return open_planner(
        request.algorithm,
        resolved.query,
        resolved.factory,
        resolved.schedule,
        bounds=resolved.bounds,
        budget=request.budget,
        **options,
    )


def open_session(request: OptimizeRequest) -> PlannerSession:
    """Open a planner session for a request (the main API entry point).

    The workload spec is resolved, the plan factory and resolution schedule
    are built, and a fresh session of the requested planner is returned.
    """
    return open_resolved(resolve_request(request))
