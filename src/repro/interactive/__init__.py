"""Interactive MOQO: user models and frontier visualization.

The paper's motivation is an *interactive* optimization process (Figure 1): the
optimizer continuously refines a visualization of the Pareto-optimal cost
tradeoffs while the user may tighten or relax cost bounds and finally selects a
plan by clicking a cost tradeoff.  There is no GUI in this reproduction; the
Algorithm-1 loop is :class:`repro.api.session.PlannerSession`, and this package
provides what plugs into it:

* scripted **user models** that react to frontier updates exactly like the
  users in the paper's scenarios (never interacting, tightening bounds,
  relaxing bounds, selecting a plan once the frontier is precise enough);
  pass one as ``session.run(user=...)``,
* **visualization** helpers that render frontiers as ASCII scatter plots and
  streamed updates as one line each, for terminal display.
"""

from repro.interactive.visualize import ascii_scatter, format_stream_line
from repro.interactive.user_models import (
    UserModel,
    BoundTighteningUser,
    BoundRelaxingUser,
    PlanSelectingUser,
    ScriptedUser,
    weighted_sum_chooser,
)

__all__ = [
    "ascii_scatter",
    "format_stream_line",
    "UserModel",
    "BoundTighteningUser",
    "BoundRelaxingUser",
    "PlanSelectingUser",
    "ScriptedUser",
    "weighted_sum_chooser",
]
