"""Query and query-plan representation.

The paper models a query as a set of tables to be joined (Section 3) and a
query plan as either a scan of a single table or a join of two sub-plans.
Section 4.3 lists the standard extensions the real implementation supports:
multiple join operators, interesting tuple orders, and predicates/projections
pushed into the join tree.  This package provides:

* :mod:`repro.plans.query` -- the query model (table sets plus the join graph
  used for cardinality estimation),
* :mod:`repro.plans.operators` -- physical scan and join operators with their
  parameters (sampling rate, parallelism, algorithm),
* :mod:`repro.plans.arena` -- the per-query :class:`PlanArena` interning every
  plan as a dense integer id over parallel arrays (child ids, operator id,
  table-set id, interesting-order id) with one contiguous cost-matrix row per
  plan; ``arena.plan(plan_id)`` is the only way to reach a plan's handle,
* :mod:`repro.plans.plan` -- immutable plan trees as thin handles over arena
  slots, carrying cost vectors and interesting orders,
* :mod:`repro.plans.factory` -- the :class:`PlanFactory` that builds costed
  scan and join plans (individually or in batched id blocks) from operators,
  the cardinality estimator and the multi-objective cost model.
"""

from repro.plans.query import Query, table_subsets, proper_splits
from repro.plans.operators import (
    ScanOperator,
    JoinOperator,
    OperatorRegistry,
    default_operator_registry,
)
from repro.plans.arena import ArenaStats, PlanArena
from repro.plans.plan import Plan, ScanPlan, JoinPlan
from repro.plans.factory import PlanFactory
from repro.plans.explain import (
    explain_plan,
    explain_plan_id,
    compare_plans,
    frontier_summary,
    format_frontier_summary,
)

__all__ = [
    "Query",
    "table_subsets",
    "proper_splits",
    "ScanOperator",
    "JoinOperator",
    "OperatorRegistry",
    "default_operator_registry",
    "ArenaStats",
    "PlanArena",
    "Plan",
    "ScanPlan",
    "JoinPlan",
    "PlanFactory",
    "explain_plan",
    "explain_plan_id",
    "compare_plans",
    "frontier_summary",
    "format_frontier_summary",
]
