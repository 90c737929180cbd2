#!/usr/bin/env python3
"""Quickstart: the unified planner API on a TPC-H join block.

One :class:`repro.api.OptimizeRequest` names everything an optimization needs
-- a workload spec (``tpch:q03`` or ``gen:star:6:42``), an algorithm from the
planner table (``exhaustive``, ``iama``, ``memoryless``, ``oneshot``,
``single_objective``), the anytime configuration (resolution levels and
precision), and an optional budget.  ``open_session`` returns a session that
streams one typed ``FrontierUpdate`` per optimizer invocation -- the
programmatic equivalent of the progressively refined visualization of
Figure 1 -- and finishes with a uniform ``OptimizationResult`` whose
``to_dict()`` form is stable, versioned JSON (``from_dict`` round-trips it).

Run with:  python examples/quickstart.py
(Scale via REPRO_BENCH_SCALE=tiny|smoke|paper; default smoke.)
"""

from repro.api import OptimizeRequest, open_session
from repro.costs.pareto import pareto_filter


def main() -> None:
    # 1. Describe the optimization: the TPC-H Q3 join block
    #    (customer/orders/lineitem), the paper's three cost metrics, five
    #    resolution levels refining alpha = 1.06 down to 1.01.
    request = OptimizeRequest(workload="tpch:q03", algorithm="iama", levels=5)

    # 2. Open a session.  The workload spec is resolved, the plan factory and
    #    resolution schedule are built, and the algorithm is looked up in the
    #    planner table ``PLANNERS``.
    session = open_session(request)
    query = session.query
    schedule = session.driver.schedule
    print(f"Optimizing {query.name} joining {sorted(query.tables)}\n")
    print(
        "Resolution levels and precision factors:",
        [f"{alpha:.3f}" for alpha in schedule.factors()],
    )
    print(
        f"Worst-case guarantee at the final level: "
        f"{schedule.guaranteed_precision(query.table_count):.3f}\n"
    )

    # 3. Stream the anytime refinement.  Each update carries the invocation
    #    report and the visualized frontier; a user (or steering code) could
    #    react between updates -- see cloud_tradeoff_exploration.py.
    for update in session.updates():
        frontier = pareto_filter(update.frontier_costs)
        print(
            f"invocation {update.invocation.index}: "
            f"resolution {update.invocation.resolution}, "
            f"{update.invocation.duration_seconds * 1000:6.1f} ms, "
            f"{len(update.frontier):4d} stored tradeoffs, "
            f"{len(frontier):3d} non-dominated"
        )

    # 4. The uniform result: finish reason, per-invocation reports, frontier.
    result = session.result()
    print(
        f"\nSession finished ({result.finish_reason}): "
        f"{result.plans_generated} plans generated, "
        f"{result.frontier_size} tradeoffs on the final frontier."
    )

    # 5. Inspect the final frontier: the best plan per metric.
    metric_set = session.driver.factory.metric_set
    print("\nBest plan per metric at the final resolution:")
    for index, name in enumerate(metric_set.names):
        best = min(result.frontier, key=lambda summary: summary.cost[index])
        values = ", ".join(
            f"{metric}={value:.3g}"
            for metric, value in metric_set.describe(best.cost).items()
        )
        print(f"  minimal {name:16s}: {values}")
        print(f"    plan: {best.render}")

    # 6. The result is stable, versioned JSON -- ready for caches and tools.
    payload = result.to_dict()
    print(
        f"\nresult.to_dict(): schema_version {payload['schema_version']}, "
        f"{len(payload['invocations'])} invocations, "
        f"{len(payload['frontier'])} frontier entries"
    )


if __name__ == "__main__":
    main()
