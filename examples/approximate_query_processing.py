#!/usr/bin/env python3
"""Approximate query processing: trading result precision for execution time.

Example 2 of the paper: "In approximate query processing, there is a tradeoff
between execution time and result precision since sampling can be used to
reduce execution time."  This script optimizes a lineitem-heavy TPC-H block
under the paper's three-metric cost model -- through the unified planner API
-- and then answers questions a user hand-tuning a recurring analytical query
would ask:

* What is the fastest exact plan (no sampling, precision loss 0)?
* How much faster can the query get if 5% / 25% precision loss is acceptable?
* How do those answers change when only a single core may be reserved?

It also contrasts IAMA's frontier against the ``single_objective``
planner, which can only produce one point of the tradeoff space.

Run with:  python examples/approximate_query_processing.py
(Scale via REPRO_BENCH_SCALE=tiny|smoke|paper; default smoke.)
"""

import os

from repro.api import OptimizeRequest, open_session
from repro.costs.pareto import pareto_filter

TINY = os.environ.get("REPRO_BENCH_SCALE", "").strip().lower() == "tiny"
LEVELS = 3 if TINY else 8


def fastest_within(frontier, metric_set, max_precision_loss, max_cores=None):
    """Cheapest execution time among plans meeting the precision/core limits."""
    time_index = metric_set.index_of("execution_time")
    loss_index = metric_set.index_of("precision_loss")
    cores_index = metric_set.index_of("reserved_cores")
    admissible = [
        summary
        for summary in frontier
        if summary.cost[loss_index] <= max_precision_loss + 1e-12
        and (max_cores is None or summary.cost[cores_index] <= max_cores)
    ]
    if not admissible:
        return None
    return min(admissible, key=lambda summary: summary.cost[time_index])


def main() -> None:
    # Multi-objective anytime optimization through the unified API.
    request = OptimizeRequest(
        workload="tpch:q14", algorithm="iama", levels=LEVELS, precision="fine"
    )
    session = open_session(request)
    print(
        f"Approximate query processing on {session.query.name}: "
        f"{sorted(session.query.tables)}\n"
    )
    result = session.run()
    metric_set = session.driver.factory.metric_set
    frontier = result.frontier
    non_dominated = pareto_filter([summary.cost for summary in frontier])
    print(
        f"IAMA explored {result.plans_generated} plans and kept "
        f"{len(frontier)} tradeoffs ({len(non_dominated)} non-dominated).\n"
    )

    time_index = metric_set.index_of("execution_time")
    scenarios = [
        ("exact result", 0.0, None),
        ("5% precision loss allowed", 0.05, None),
        ("25% precision loss allowed", 0.25, None),
        ("25% loss, single core only", 0.25, 1),
    ]
    exact = fastest_within(frontier, metric_set, 0.0)
    print("What sampling buys, according to the Pareto frontier:")
    for label, loss, cores in scenarios:
        best = fastest_within(frontier, metric_set, loss, cores)
        if best is None:
            print(f"  {label:32s}: no qualifying plan")
            continue
        speedup = exact.cost[time_index] / best.cost[time_index] if exact else 1.0
        described = ", ".join(
            f"{name}={value:.3g}" for name, value in metric_set.describe(best.cost).items()
        )
        print(f"  {label:32s}: {described}  ({speedup:.1f}x vs exact)")
        print(f"    {best.render}")

    # Classical single-objective optimization sees only one point; it is just
    # another planner in ``PLANNERS``.
    single = open_session(
        request.with_overrides(algorithm="single_objective", objective="execution_time")
    ).run()
    fastest = single.frontier[0]
    print(
        "\nSingle-objective planner (execution time only) returns a single plan:\n"
        f"  {fastest.render}\n"
        f"  cost: "
        + ", ".join(
            f"{name}={value:.3g}"
            for name, value in metric_set.describe(fastest.cost).items()
        )
    )
    print(
        "\nIt cannot answer 'how much precision do I give up for that speed?' --\n"
        "the Pareto frontier above is exactly that answer."
    )


if __name__ == "__main__":
    main()
