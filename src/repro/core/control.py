"""The user actions of the main control loop (Algorithm 1).

Algorithm 1 alternates between optimizer invocations and user interaction:

1. invoke the incremental optimizer for the current bounds ``b`` and
   resolution ``r``,
2. visualize the cost of the completed query plans in ``Res^Q[0..b, 0..r]``,
3. process user input: when the user changed the bounds, adopt them and reset
   the resolution to 0; otherwise refine the resolution
   (``r <- min(r_M, r + 1)``); when the user selects a plan, stop and return it.

The loop itself is :class:`repro.api.session.PlannerSession`; this module
defines the actions it applies after each invocation: :class:`Continue`,
:class:`ChangeBounds` and :class:`SelectPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.costs.vector import CostVector
from repro.plans.plan import Plan


class UserAction:
    """Base class for the actions a user can take after each iteration."""


@dataclass(frozen=True)
class Continue(UserAction):
    """No user input: the control loop refines the resolution."""


@dataclass(frozen=True)
class ChangeBounds(UserAction):
    """The user dragged the cost bounds to a new position."""

    bounds: CostVector


@dataclass(frozen=True)
class SelectPlan(UserAction):
    """The user clicked a cost tradeoff, selecting a plan for execution.

    Either a concrete plan from the visualized frontier or a chooser callable
    that receives the current frontier and returns one of its plans.
    """

    plan: Optional[Plan] = None
    chooser: Optional[Callable[[Sequence[Plan]], Plan]] = None

    def resolve(self, frontier: Sequence[Plan]) -> Optional[Plan]:
        """The plan the user selected, given the currently visualized frontier."""
        if self.plan is not None:
            return self.plan
        if self.chooser is not None and frontier:
            return self.chooser(frontier)
        return None
