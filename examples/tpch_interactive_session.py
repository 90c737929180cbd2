#!/usr/bin/env python3
"""Algorithm comparison on TPC-H: why incrementality matters interactively.

This example reproduces, at example scale, the core experimental comparison of
Section 6 -- the incremental anytime algorithm (IAMA) against the memoryless
and one-shot baselines -- but drives every algorithm through the *same*
planner session API, which is the point: one surface, five
algorithms.  It reports

* the time of every optimizer invocation in a resolution sweep,
* how long a user waits for the *first* visualized frontier,
* the total number of plans each algorithm had to construct,
* what happens when the user changes cost bounds mid-session (only IAMA
  reuses previously generated plans).

Run with:  python examples/tpch_interactive_session.py
(Scale via REPRO_BENCH_SCALE=tiny|smoke|paper; default smoke.)
"""

import os
import time

from repro.api import OptimizeRequest, open_session
from repro.core.control import ChangeBounds

TINY = os.environ.get("REPRO_BENCH_SCALE", "").strip().lower() == "tiny"
QUERY = "tpch:q03" if TINY else "tpch:q10"
LEVELS = 3 if TINY else 6


def fresh_session(algorithm: str):
    request = OptimizeRequest(workload=QUERY, algorithm=algorithm, levels=LEVELS)
    return open_session(request)


def main() -> None:
    session = fresh_session("iama")
    query = session.query
    print(f"Comparing algorithms on {query.name} ({query.table_count} tables), "
          f"{LEVELS} resolution levels\n")

    # ------------------------------------------------------------------
    # The same drain loop serves every algorithm: open, run, read the result.
    # ------------------------------------------------------------------
    results = {"iama": session.run()}
    for algorithm in ("memoryless", "oneshot"):
        results[algorithm] = fresh_session(algorithm).run()

    iama = results["iama"]
    print("IAMA invocation times      :",
          " ".join(f"{t * 1000:7.1f}ms" for t in iama.durations_seconds))
    print(f"  first frontier after     : {iama.durations_seconds[0] * 1000:.1f} ms "
          f"({iama.invocations[0].frontier_size} tradeoffs)")
    print(f"  plans constructed        : {iama.plans_generated}")

    memo = results["memoryless"]
    print("\nMemoryless invocation times:",
          " ".join(f"{t * 1000:7.1f}ms" for t in memo.durations_seconds))
    print(f"  plans constructed        : {memo.plans_generated}")

    oneshot = results["oneshot"]
    print(f"\nOne-shot single invocation : "
          f"{oneshot.durations_seconds[0] * 1000:7.1f}ms "
          f"(user sees nothing until it finishes)")
    print(f"  plans constructed        : {oneshot.plans_generated}")

    avg_iama = sum(iama.durations_seconds) / len(iama.durations_seconds)
    avg_memo = sum(memo.durations_seconds) / len(memo.durations_seconds)
    print(f"\nAverage time per invocation: IAMA {avg_iama * 1000:.1f} ms, "
          f"memoryless {avg_memo * 1000:.1f} ms "
          f"-> {avg_memo / avg_iama:.1f}x faster on average")

    # ------------------------------------------------------------------
    # Mid-session bound change: incrementality pays off.  The IAMA session is
    # exhausted, so open a fresh one, drain it, then steer it with new bounds.
    # ------------------------------------------------------------------
    print("\nUser drags the execution-time bound to the median of the frontier...")
    session = fresh_session("iama")
    metric_set = session.driver.factory.metric_set
    time_index = metric_set.index_of("execution_time")
    for update in session.updates():
        if update.invocation.resolution == session.driver.schedule.max_resolution:
            # React to the final frontier: tighten the time bound.
            times = sorted(c[time_index] for c in update.frontier_costs)
            median_time = times[len(times) // 2]
            session.steer(ChangeBounds(
                update.invocation.bounds.with_component(time_index, median_time)
            ))
            break

    built_before = session.driver.factory.counters.total_plans_built
    started = time.perf_counter()
    session.apply()                       # adopt the queued bound change
    bounded = session.step()              # re-invoke under the new bounds
    refined = session.step()              # one refinement under the new bounds
    elapsed = time.perf_counter() - started
    built_after = session.driver.factory.counters.total_plans_built
    print(f"  IAMA handled the change in {elapsed * 1000:.1f} ms and built "
          f"{built_after - built_before} new plans "
          f"(frontier now {len(refined.frontier)} tradeoffs within bounds).")

    new_bounds = bounded.invocation.bounds
    started = time.perf_counter()
    restart = fresh_session("memoryless")
    restart.apply(ChangeBounds(new_bounds))  # a restart begins at the new bounds
    restart.step()
    restart.step()
    elapsed = time.perf_counter() - started
    print(f"  A memoryless optimizer starts over and needs {elapsed * 1000:.1f} ms "
          f"and {restart.driver.factory.counters.total_plans_built} plans "
          "for the same two steps.")


if __name__ == "__main__":
    main()
