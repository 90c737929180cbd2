"""Scripted user models for interactive MOQO sessions.

A user model is a callable ``update -> UserAction``; pass one as
``PlannerSession.run(user=...)``, which hands it the latest
:class:`~repro.api.schema.FrontierUpdate` after every invocation and applies
the action the "user" takes -- keep refining, change the cost bounds, or
select a plan.

The shipped models cover the scenarios discussed in the paper:

* :class:`UserModel` -- never interacts (the setting of the experimental
  evaluation, Section 6.1),
* :class:`BoundTighteningUser` -- progressively tightens bounds on one metric,
  the scenario for which the Δ-set optimization is most effective,
* :class:`BoundRelaxingUser` -- relaxes a tight initial bound, exercising the
  out-of-bounds candidate reactivation path of the pruning procedure,
* :class:`PlanSelectingUser` -- waits until the frontier is rendered at a
  minimum resolution and then picks the plan optimizing a weighted preference,
* :class:`ScriptedUser` -- replays an arbitrary list of actions (used by tests).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.schema import FrontierUpdate

from repro.core.control import ChangeBounds, Continue, SelectPlan, UserAction
from repro.costs.metrics import MetricSet
from repro.costs.vector import CostVector
from repro.plans.plan import Plan


class UserModel:
    """Base class for user models; default behaviour is to never interact."""

    def react(self, update: FrontierUpdate) -> UserAction:
        """Return the action the user takes after seeing ``update``."""
        return Continue()

    def __call__(self, update: FrontierUpdate) -> UserAction:
        return self.react(update)


class ScriptedUser(UserModel):
    """Replays a fixed list of actions, one per iteration, then keeps continuing."""

    def __init__(self, actions: Sequence[UserAction]):
        self._actions: List[UserAction] = list(actions)
        self._next = 0

    def react(self, update: FrontierUpdate) -> UserAction:
        if self._next < len(self._actions):
            action = self._actions[self._next]
            self._next += 1
            return action
        return Continue()


class BoundTighteningUser(UserModel):
    """Tightens the bound on one metric by a constant factor every few iterations.

    Parameters
    ----------
    metric_set:
        The metric set of the session (needed to build bound vectors).
    metric_name:
        The metric whose bound is tightened.
    tighten_every:
        A bounds change is issued every this many iterations.
    factor:
        Each change multiplies the current bound value by this factor (< 1).
    initial_quantile:
        The first bound is placed at this quantile of the currently visualized
        metric values, so the bound is always meaningful for the query at hand.
    """

    def __init__(
        self,
        metric_set: MetricSet,
        metric_name: str = "execution_time",
        tighten_every: int = 2,
        factor: float = 0.7,
        initial_quantile: float = 0.8,
    ):
        if tighten_every < 1:
            raise ValueError("tighten_every must be at least 1")
        if not 0.0 < factor < 1.0:
            raise ValueError("factor must be in (0, 1)")
        if not 0.0 < initial_quantile <= 1.0:
            raise ValueError("initial_quantile must be in (0, 1]")
        self._metric_set = metric_set
        self._metric_index = metric_set.index_of(metric_name)
        self._tighten_every = tighten_every
        self._factor = factor
        self._initial_quantile = initial_quantile
        self._current_bound: Optional[float] = None

    def react(self, update: FrontierUpdate) -> UserAction:
        if update.invocation.index % self._tighten_every != 0:
            return Continue()
        values = sorted(
            cost[self._metric_index] for cost in update.frontier_costs
        )
        if not values:
            return Continue()
        if self._current_bound is None:
            position = int(self._initial_quantile * (len(values) - 1))
            self._current_bound = values[position]
        else:
            self._current_bound *= self._factor
        bounds = update.invocation.bounds.with_component(
            self._metric_index, self._current_bound
        )
        return ChangeBounds(bounds)


class BoundRelaxingUser(UserModel):
    """Starts from tight bounds supplied by the caller and relaxes them once.

    The relaxation happens after ``relax_after`` iterations and multiplies
    every finite bound component by ``factor`` (> 1).  This exercises the path
    in which out-of-bounds candidate plans become relevant again
    (Example 3 in the paper).
    """

    def __init__(self, relax_after: int = 2, factor: float = 10.0):
        if relax_after < 1:
            raise ValueError("relax_after must be at least 1")
        if factor <= 1.0:
            raise ValueError("factor must be greater than 1")
        self._relax_after = relax_after
        self._factor = factor
        self._relaxed = False

    def react(self, update: FrontierUpdate) -> UserAction:
        if self._relaxed or update.invocation.index < self._relax_after:
            return Continue()
        self._relaxed = True
        relaxed = CostVector(
            value * self._factor if value != float("inf") else value
            for value in update.invocation.bounds
        )
        return ChangeBounds(relaxed)


def weighted_sum_chooser(
    metric_set: MetricSet, weights: Dict[str, float]
) -> Callable[[Sequence[Plan]], Plan]:
    """Build a chooser that picks the frontier plan minimizing a weighted sum.

    Missing metrics get weight 0; all weights must be non-negative and at least
    one must be positive.
    """
    if any(weight < 0 for weight in weights.values()):
        raise ValueError("weights must be non-negative")
    if not any(weight > 0 for weight in weights.values()):
        raise ValueError("at least one weight must be positive")
    indexed = {
        metric_set.index_of(name): weight for name, weight in weights.items()
    }

    def chooser(frontier: Sequence[Plan]) -> Plan:
        if not frontier:
            raise ValueError("cannot choose from an empty frontier")
        return min(
            frontier,
            key=lambda plan: sum(
                weight * plan.cost[index] for index, weight in indexed.items()
            ),
        )

    return chooser


class PlanSelectingUser(UserModel):
    """Selects a plan once the frontier has reached a minimum resolution.

    Parameters
    ----------
    chooser:
        Callable picking one plan from the visualized frontier (e.g. the result
        of :func:`weighted_sum_chooser`).
    min_resolution:
        The user waits until the visualized frontier was computed at this
        resolution level or higher.
    min_frontier_size:
        ... and contains at least this many alternatives.
    """

    def __init__(
        self,
        chooser: Callable[[Sequence[Plan]], Plan],
        min_resolution: int = 0,
        min_frontier_size: int = 1,
    ):
        self._chooser = chooser
        self._min_resolution = min_resolution
        self._min_frontier_size = min_frontier_size

    def react(self, update: FrontierUpdate) -> UserAction:
        if (
            update.invocation.resolution >= self._min_resolution
            and len(update.frontier) >= self._min_frontier_size
        ):
            return SelectPlan(chooser=self._chooser)
        return Continue()
