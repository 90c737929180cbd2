"""Baseline optimization algorithms.

The paper compares IAMA against two baselines derived from the authors' prior
approximation schemes (Trummer & Koch, SIGMOD 2014), both runs of
:class:`ApproximateParetoDP` at different precision factors:

* the **one-shot** algorithm produces the result plan set at the target
  precision directly, with no intermediate results (no anytime property),
* the **memoryless** algorithm produces the same sequence of result plan sets
  as IAMA (one per resolution level) but restarts optimization from scratch in
  every invocation (no incrementality).

Their drivers (``oneshot`` and ``memoryless`` in
:data:`repro.api.planners.PLANNERS`) pick the precision factor of each run.

Two further reference algorithms support testing and the examples:

* the **exhaustive Pareto DP** (in the spirit of Ganguly et al.) computes the
  exact Pareto plan set and serves as ground truth for the approximation
  guarantees on small queries,
* the **single-objective DP** is a classical Selinger-style optimizer for one
  metric, used to illustrate why MOQO needs Pareto sets and as the reference
  point for the amortized-complexity claim (Theorem 5).
"""

from repro.baselines.common import ApproximateParetoDP, DPInvocationReport
from repro.baselines.exhaustive import ExhaustiveParetoOptimizer
from repro.baselines.single_objective import SingleObjectiveOptimizer

__all__ = [
    "ApproximateParetoDP",
    "DPInvocationReport",
    "ExhaustiveParetoOptimizer",
    "SingleObjectiveOptimizer",
]
