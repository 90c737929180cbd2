"""repro: reproduction of "An Incremental Anytime Algorithm for Multi-Objective
Query Optimization" (Trummer & Koch, SIGMOD 2015).

The package implements the paper's incremental anytime MOQO algorithm (IAMA)
together with every substrate it needs -- a multi-objective cost model, a
catalog and cardinality estimator, a plan representation, the TPC-H workload at
the join-graph level, the baseline algorithms used in the evaluation, one
planner session loop (Algorithm 1) that scripted user models steer, and an
experiment harness that regenerates the paper's figures.

Quickstart
----------

>>> from repro import OptimizeRequest, open_session
>>> result = open_session(
...     OptimizeRequest(workload="tpch:q03", levels=3, scale="tiny")
... ).run()                                        # anytime refinement
>>> result.finish_reason, len(result.invocations)
('exhausted', 3)
>>> sizes = [invocation.frontier_size for invocation in result.invocations]
>>> sizes[-1] >= sizes[0] > 0
True
"""

from repro.costs import (
    CostVector,
    CostMatrix,
    MetricSet,
    MultiObjectiveCostModel,
    CostModelConfig,
    approximation_error,
    default_metric_set,
    paper_metric_set,
    dominates,
    strictly_dominates,
    approximately_dominates,
)
from repro.catalog import (
    CardinalityEstimator,
    JoinGraph,
    JoinPredicate,
    Schema,
    StatisticsCatalog,
    Table,
    Column,
    ForeignKey,
)
from repro.plans import (
    Query,
    Plan,
    ScanPlan,
    JoinPlan,
    PlanFactory,
    ScanOperator,
    JoinOperator,
    OperatorRegistry,
    default_operator_registry,
)
from repro.core import (
    IncrementalOptimizer,
    InvocationReport,
    PlanIndex,
    ResolutionSchedule,
    ChangeBounds,
    Continue,
    SelectPlan,
)
from repro.baselines import (
    ExhaustiveParetoOptimizer,
    SingleObjectiveOptimizer,
)
from repro.interactive import (
    UserModel,
    BoundTighteningUser,
    BoundRelaxingUser,
    PlanSelectingUser,
    weighted_sum_chooser,
)
from repro.api import (
    PLANNERS,
    Budget,
    FrontierUpdate,
    OptimizationResult,
    OptimizeRequest,
    PlannerSession,
    open_planner,
    open_session,
)

__version__ = "1.1.0"

__all__ = [
    # costs
    "CostVector",
    "CostMatrix",
    "MetricSet",
    "MultiObjectiveCostModel",
    "CostModelConfig",
    "approximation_error",
    "default_metric_set",
    "paper_metric_set",
    "dominates",
    "strictly_dominates",
    "approximately_dominates",
    # catalog
    "CardinalityEstimator",
    "JoinGraph",
    "JoinPredicate",
    "Schema",
    "StatisticsCatalog",
    "Table",
    "Column",
    "ForeignKey",
    # plans
    "Query",
    "Plan",
    "ScanPlan",
    "JoinPlan",
    "PlanFactory",
    "ScanOperator",
    "JoinOperator",
    "OperatorRegistry",
    "default_operator_registry",
    # core (IAMA)
    "IncrementalOptimizer",
    "InvocationReport",
    "PlanIndex",
    "ResolutionSchedule",
    "ChangeBounds",
    "Continue",
    "SelectPlan",
    # baselines
    "ExhaustiveParetoOptimizer",
    "SingleObjectiveOptimizer",
    # interactive
    "UserModel",
    "BoundTighteningUser",
    "BoundRelaxingUser",
    "PlanSelectingUser",
    "weighted_sum_chooser",
    # unified planner API
    "OptimizeRequest",
    "Budget",
    "open_session",
    "PlannerSession",
    "PLANNERS",
    "open_planner",
    "FrontierUpdate",
    "OptimizationResult",
    "__version__",
]
