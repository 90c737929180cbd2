"""Interactive session driver.

:class:`InteractiveSession` wires a query, a plan factory, a resolution
schedule and a user model into the anytime control loop and records a timeline
of frontier snapshots -- the programmatic equivalent of watching the Figure-1
interface refine its display while the user drags bounds around and eventually
clicks a plan.

The Algorithm-1 loop itself is :class:`repro.api.session.PlannerSession`;
this class is a thin consumer that opens an ``iama`` session with
:func:`~repro.api.session.open_planner`, feeds each streamed :class:`~repro.api.schema.FrontierUpdate` to the user
model, steers the session with the user's reaction, and records the timeline
of snapshots on top.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.schema import FrontierUpdate
    from repro.api.session import PlannerSession

from repro.core.control import Continue, UserAction
from repro.core.resolution import ResolutionSchedule
from repro.costs.pareto import hypervolume_2d
from repro.costs.vector import CostVector
from repro.interactive.user_models import UserModel
from repro.interactive.visualize import FrontierSnapshot
from repro.plans.factory import PlanFactory
from repro.plans.plan import Plan
from repro.plans.query import Query


@dataclass(frozen=True)
class SessionTimelineEntry:
    """One main-loop iteration as recorded by the session."""

    snapshot: FrontierSnapshot
    action: UserAction
    invocation_seconds: float

    @property
    def iteration(self) -> int:
        return self.snapshot.iteration

    @property
    def resolution(self) -> int:
        return self.snapshot.resolution


class InteractiveSession:
    """Drives an anytime MOQO optimization under a scripted user model."""

    def __init__(
        self,
        query: Query,
        factory: PlanFactory,
        schedule: ResolutionSchedule,
        user: Optional[UserModel] = None,
        default_bounds: Optional[CostVector] = None,
        **optimizer_options,
    ):
        # Imported lazily: repro.api resolves its configuration through the
        # bench package, whose experiment definitions import this module.
        from repro.api.session import open_planner

        self._factory = factory
        self._user = user or UserModel()
        # ``continuous``: the interactive loop follows Algorithm 1 literally
        # and keeps refining at the maximal resolution until the user selects
        # a plan or the caller's iteration budget runs out.
        self._session = open_planner(
            "iama",
            query,
            factory,
            schedule,
            bounds=default_bounds,
            continuous=True,
            **optimizer_options,
        )
        self._timeline: List[SessionTimelineEntry] = []
        self._started: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def loop(self) -> "PlannerSession":
        """The underlying planner session (for inspection)."""
        return self._session

    @property
    def timeline(self) -> List[SessionTimelineEntry]:
        """Everything that happened so far, one entry per iteration."""
        return list(self._timeline)

    @property
    def selected_plan(self) -> Optional[Plan]:
        return self._session.selected_plan

    # ------------------------------------------------------------------
    def run(self, max_iterations: int = 50) -> Optional[Plan]:
        """Run until the user selects a plan or the iteration budget is spent."""
        self._started = time.perf_counter()
        performed = 0
        while performed < max_iterations and not self._session.finished:
            update = self._session.advance()
            action = self._user.react(update)
            self._record(update, action)
            self._session.apply(action)
            performed += 1
        return self._session.selected_plan

    def step(self) -> SessionTimelineEntry:
        """Run a single iteration and record it.

        The user model's reaction is recorded in the timeline, but the loop
        itself refines the resolution (the caller decides when to steer for
        real).
        """
        if self._started is None:
            self._started = time.perf_counter()
        update = self._session.advance()
        entry = self._record(update, self._user.react(update))
        self._session.apply(Continue())
        return entry

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """One-shot session summary: progress plus plan-arena occupancy.

        Mirrors the per-invocation arena gauges surfaced through
        ``repro-moqo optimize --json``: how many plans the session's per-query
        arena holds, how many of those were tombstoned as dead weight, and
        the estimated footprint of the arena columns.
        """
        stats = self._session.driver.factory.arena.stats()
        last = self._timeline[-1].snapshot if self._timeline else None
        return {
            "iterations": len(self._timeline),
            "resolution": last.resolution if last is not None else None,
            "frontier_size": last.size if last is not None else 0,
            "selected": self._session.selected_plan is not None,
            "arena_plans_total": stats.plans_total,
            "arena_plans_live": stats.plans_live,
            "arena_plans_tombstoned": stats.plans_tombstoned,
            "arena_approx_bytes": stats.approx_bytes,
        }

    def format_summary(self) -> str:
        """Human-readable rendering of :meth:`summary`."""
        summary = self.summary()
        status = "plan selected" if summary["selected"] else "no plan selected"
        return (
            f"session: {summary['iterations']} iterations, "
            f"resolution {summary['resolution']}, "
            f"{summary['frontier_size']} tradeoffs, {status}\n"
            f"plan arena: {summary['arena_plans_live']} live plans, "
            f"{summary['arena_plans_tombstoned']} tombstoned, "
            f"~{summary['arena_approx_bytes'] / 1024.0:.1f} KiB"
        )

    # ------------------------------------------------------------------
    def hypervolume_series(
        self, x_metric: int = 0, y_metric: int = 1
    ) -> List[float]:
        """Dominated hypervolume of the visualized frontier over time.

        Works on two selected metrics; the reference point is the maximum
        observed value per metric over the whole timeline (plus 5%), so the
        series is comparable across iterations.  Used by the anytime-quality
        experiment (Figure 2 style).
        """
        all_costs = [
            cost for entry in self._timeline for cost in entry.snapshot.costs
        ]
        if not all_costs:
            return []
        ref = (
            max(c[x_metric] for c in all_costs) * 1.05,
            max(c[y_metric] for c in all_costs) * 1.05,
        )
        series = []
        for entry in self._timeline:
            projected = [
                CostVector([c[x_metric], c[y_metric]]) for c in entry.snapshot.costs
            ]
            series.append(hypervolume_2d(projected, ref))
        return series

    # ------------------------------------------------------------------
    def _record(
        self, update: "FrontierUpdate", action: UserAction
    ) -> SessionTimelineEntry:
        elapsed = (
            time.perf_counter() - self._started if self._started is not None else 0.0
        )
        invocation = update.invocation
        snapshot = FrontierSnapshot(
            iteration=invocation.index,
            resolution=invocation.resolution,
            bounds=invocation.bounds,
            costs=tuple(update.frontier_costs),
            elapsed_seconds=elapsed,
        )
        entry = SessionTimelineEntry(
            snapshot=snapshot,
            action=action,
            invocation_seconds=invocation.duration_seconds,
        )
        self._timeline.append(entry)
        return entry
