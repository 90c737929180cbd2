"""Plan explanation and frontier summaries.

Interactive MOQO ends with a human choosing a plan, so the library needs a
readable way to show what a plan does and how the visualized frontier is
structured.  This module provides:

* :func:`explain_plan` -- a multi-line, indented rendering of a plan tree in
  the style of ``EXPLAIN`` output, annotated with each node's cost vector,
* :func:`compare_plans` -- a per-metric comparison of two plans (used when a
  user hesitates between two frontier points),
* :func:`frontier_summary` -- per-metric minima/maxima and the number of
  distinct tradeoffs of a frontier, the aggregate view the paper suggests for
  more than three cost metrics.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.costs.metrics import MetricSet
from repro.costs.pareto import pareto_filter
from repro.costs.vector import CostVector
from repro.plans.plan import Plan, ScanPlan


def explain_plan(plan: Plan, metric_set: MetricSet, indent: str = "  ") -> str:
    """Render a plan tree as indented, EXPLAIN-style text.

    Each line shows the operator, the tables it covers and its cumulative cost
    vector; children are indented below their parent.  The tree itself is
    reconstructed from the plan's arena ids: a :class:`~repro.plans.plan.Plan`
    is a handle over an arena slot, and walking ``plan.left``/``plan.right``
    resolves the child-id columns back into (cached) handles.
    """
    lines: List[str] = []
    _explain_into(plan, metric_set, lines, depth=0, indent=indent)
    return "\n".join(lines)


def explain_plan_id(
    arena, plan_id: int, metric_set: MetricSet, indent: str = "  "
) -> str:
    """Render the plan with the given arena id (see :func:`explain_plan`).

    Convenience entry point for consumers that carry bare ids (the optimizer
    hot paths, serialized traces): the tree is rebuilt from the arena's
    left/right child columns before rendering.
    """
    return explain_plan(arena.plan(plan_id), metric_set, indent=indent)


def _explain_into(
    plan: Plan, metric_set: MetricSet, lines: List[str], depth: int, indent: str
) -> None:
    costs = ", ".join(
        f"{name}={value:.4g}" for name, value in metric_set.describe(plan.cost).items()
    )
    prefix = indent * depth
    if isinstance(plan, ScanPlan):
        lines.append(f"{prefix}{plan.operator.label} on {plan.table}  [{costs}]")
        return
    tables = ",".join(sorted(plan.tables))
    order = f", order={plan.interesting_order}" if plan.interesting_order else ""
    lines.append(f"{prefix}{plan.operator.label} joining {{{tables}}}  [{costs}]{order}")
    _explain_into(plan.left, metric_set, lines, depth + 1, indent)
    _explain_into(plan.right, metric_set, lines, depth + 1, indent)


def compare_plans(left: Plan, right: Plan, metric_set: MetricSet) -> Dict[str, Dict[str, float]]:
    """Per-metric comparison of two plans.

    Returns ``{metric: {"left": value, "right": value, "ratio": left/right}}``;
    the ratio is ``inf`` when the right value is zero and the left is not.
    """
    comparison: Dict[str, Dict[str, float]] = {}
    for index, name in enumerate(metric_set.names):
        left_value = left.cost[index]
        right_value = right.cost[index]
        if right_value == 0.0:
            ratio = 1.0 if left_value == 0.0 else float("inf")
        else:
            ratio = left_value / right_value
        comparison[name] = {"left": left_value, "right": right_value, "ratio": ratio}
    return comparison


def frontier_summary(
    costs: Sequence[CostVector], metric_set: MetricSet
) -> Dict[str, Dict[str, float]]:
    """Aggregate view of a frontier: per-metric minimum, maximum and spread.

    The paper notes that for more than three metrics users "look at aggregates
    (minima and maxima) for the different cost metrics"; this function computes
    exactly those aggregates plus the number of stored and non-dominated
    tradeoffs (under the key ``"_tradeoffs"``).
    """
    summary: Dict[str, Dict[str, float]] = {}
    if not costs:
        return {"_tradeoffs": {"stored": 0.0, "non_dominated": 0.0}}
    for index, name in enumerate(metric_set.names):
        values = [cost[index] for cost in costs]
        minimum = min(values)
        maximum = max(values)
        summary[name] = {
            "min": minimum,
            "max": maximum,
            "spread": (maximum / minimum) if minimum > 0 else float("inf"),
        }
    summary["_tradeoffs"] = {
        "stored": float(len(costs)),
        "non_dominated": float(len(pareto_filter(list(costs)))),
    }
    return summary


def format_frontier_summary(
    costs: Sequence[CostVector], metric_set: MetricSet
) -> str:
    """Human-readable rendering of :func:`frontier_summary`."""
    summary = frontier_summary(costs, metric_set)
    tradeoffs = summary.pop("_tradeoffs")
    lines = [
        f"frontier: {int(tradeoffs['stored'])} stored tradeoffs, "
        f"{int(tradeoffs['non_dominated'])} non-dominated"
    ]
    for name, stats in summary.items():
        lines.append(
            f"  {name:20s} min={stats['min']:.4g}  max={stats['max']:.4g}  "
            f"spread={stats['spread']:.3g}x"
        )
    return "\n".join(lines)
