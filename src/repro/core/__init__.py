"""IAMA: the Incremental Anytime Multi-objective query optimization Algorithm.

This package implements the paper's contribution:

* :mod:`repro.core.resolution` -- resolution levels and the precision factors
  ``alpha_r`` (Section 4.1 / 6.1: ``alpha_r = alpha_T + alpha_S * (r_M - r) / r_M``),
* :mod:`repro.core.index` -- the plan index supporting range queries over
  (cost vector, resolution level), the paper's "cell data structure" role,
* :mod:`repro.core.pruning` -- procedure ``Prune`` (Algorithm 3),
* :mod:`repro.core.fresh` -- the fresh sub-plan pairs of function ``Fresh``
  (Algorithm 3): the Δ-set pairs, and the ``IsFresh`` filter over the
  invocation history's per-plan box masks,
* :mod:`repro.core.state` -- the per-query result/candidate plan sets and
  bookkeeping counters that persist across optimizer invocations,
* :mod:`repro.core.optimizer` -- procedure ``Optimize`` (Algorithm 2),
* :mod:`repro.core.control` -- the user actions of the main control loop
  (Algorithm 1), which :class:`repro.api.session.PlannerSession` runs.
"""

from repro.core.resolution import ResolutionSchedule
from repro.core.index import PlanIndex
from repro.core.pruning import PruneOutcome, prune
from repro.core.state import OptimizerState, OptimizerCounters
from repro.core.optimizer import IncrementalOptimizer, InvocationReport
from repro.core.control import UserAction, ChangeBounds, SelectPlan, Continue

__all__ = [
    "ResolutionSchedule",
    "PlanIndex",
    "PruneOutcome",
    "prune",
    "OptimizerState",
    "OptimizerCounters",
    "IncrementalOptimizer",
    "InvocationReport",
    "UserAction",
    "ChangeBounds",
    "SelectPlan",
    "Continue",
]
