#!/usr/bin/env python3
"""The concurrent planning service: many anytime sessions, one process.

The paper's Algorithm 1 is *anytime*: every cheap invocation refines a usable
Pareto frontier.  The planning service (``repro.service``) turns that into a
multi-tenant mechanism — many concurrent queries share one process by
interleaving invocations, each getting a frontier early and a better one the
longer it stays admitted.  This example drives the in-process façade directly
(the HTTP wire layer, ``repro-moqo serve`` / ``submit``, exposes exactly the
same verbs):

1. submit a burst of generated workloads (timeslices go round-robin, one
   invocation per live session per rotation),
2. stream one job's frontier updates as they arrive,
3. resubmit the same workloads: every request is answered from the
   cross-request frontier cache by replay, re-running zero invocations,
4. warm-start: a request that previously stopped at a coarse frontier is
   resumed, computing only the missing refinement steps.

Run with:  python examples/planning_service.py
(Scale via REPRO_BENCH_SCALE=tiny|smoke|paper; default smoke.)
"""

from repro.api import Budget, OptimizeRequest
from repro.interactive import format_stream_line
from repro.service import PlanningService

WORKLOADS = [
    "gen:chain:4:0",
    "gen:star:4:0",
    "gen:cycle:4:0",
    "gen:clique:4:0",
    "gen:star:5:1",
]


def invocations_run(service: PlanningService) -> int:
    """Optimizer invocations the service has executed so far."""
    return service.stats()["scheduler"]["invocations_run"]


def main() -> None:
    with PlanningService(workers=2, max_sessions=4) as service:
        # 1. A burst of concurrent submissions.
        print(f"submitting {len(WORKLOADS)} workloads ...")
        tickets = {
            spec: service.submit(OptimizeRequest(workload=spec, levels=3))
            for spec in WORKLOADS
        }

        # 2. Stream one job's refinement while the others run concurrently.
        spec, ticket = next(iter(tickets.items()))
        print(f"\nstreaming {spec} ({ticket}):")
        for update in service.stream(ticket):
            print(format_stream_line(update))

        for spec, ticket in tickets.items():
            result = service.result(ticket, timeout=600.0)
            status = service.poll(ticket)
            print(
                f"  {spec:>16}: {status['cache_status']:>4} cache, "
                f"{len(result.invocations)} invocations, "
                f"{result.frontier_size} tradeoffs, {result.finish_reason}"
            )
        cold = service.stats()["scheduler"]
        cold_invocations = cold["invocations_run"]
        print(
            f"\ncold phase: {cold_invocations} optimizer invocations, "
            f"peak {cold['max_live_seen']} concurrently live sessions"
        )

        # 3. The same requests again: pure cache replay.
        print("\nresubmitting the same workloads ...")
        for spec in WORKLOADS:
            ticket = service.submit(OptimizeRequest(workload=spec, levels=3))
            service.result(ticket, timeout=600.0)
            print(f"  {spec:>16}: {service.poll(ticket)['cache_status']}")
        replayed = invocations_run(service) - cold_invocations
        print(f"warm phase re-ran {replayed} invocations (expected 0)")

        # 4. Warm start: a coarse run first, then the full refinement resumes
        #    from the parked session instead of starting over.
        coarse = OptimizeRequest(
            workload="gen:cycle:5:2", levels=4, budget=Budget(max_invocations=1)
        )
        service.result(service.submit(coarse), timeout=600.0)
        full = coarse.with_overrides(budget=Budget())
        before = invocations_run(service)
        ticket = service.submit(full)
        result = service.result(ticket, timeout=600.0)
        resumed = invocations_run(service) - before
        print(
            f"\nwarm start on {full.workload}: cache "
            f"{service.poll(ticket)['cache_status']}, "
            f"{len(result.invocations)} invocations reported, "
            f"only {resumed} newly computed"
        )

        cache = service.stats()["cache"]
        print(
            f"\nfrontier cache: {cache['hits']} hits, "
            f"{cache['warm_starts']} warm starts, {cache['misses']} misses, "
            f"{cache['bytes_in_use']} bytes resident"
        )


if __name__ == "__main__":
    main()
