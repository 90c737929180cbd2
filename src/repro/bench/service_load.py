"""Load generator for the concurrent planning service.

Open-loop experiment: ``jobs`` generated workloads arrive on a fixed schedule
(arrivals are independent of completions, the standard closed-vs-open-loop
distinction for tail latencies) against one :class:`PlanningService`.  Each
policy runs two phases over the *same* arrival sequence:

* **cold** — empty frontier cache: every invocation is computed, concurrency
  and scheduling policy dominate the latency profile;
* **warm** — the same requests again: every job must be answered from the
  frontier cache by replay, re-running zero optimizer invocations.

Reported per ``(policy, phase)`` row: throughput, p50/p95/p99 of
time-to-first-frontier (submission until the first visualized frontier — the
anytime promise) and of time-to-target-alpha (submission until the frontier
first reaches the schedule's target precision factor), cache hit/warm/miss
counts, optimizer invocations executed, and the peak number of concurrently
live sessions.

The results land in ``results/service_load.txt`` through the same
:class:`~repro.bench.experiments.ExperimentResult` + text-report writer as
every other benchmark.

A second experiment, :func:`run_service_scaling`, sweeps the *sharded* tier
(``WorkerPoolService``) over worker counts and reports cold-phase throughput
scaling plus warm-phase replay behaviour; runnable standalone::

    python -m repro.bench.service_load --workers-sweep 1,2,4
"""

from __future__ import annotations

import math
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.config import ExperimentConfig, config_from_environment
from repro.bench.experiments import ExperimentResult
from repro.api.request import OptimizeRequest
from repro.service.frontier_cache import FrontierCache
from repro.service.protocol import CACHE_HIT, CACHE_MISS, CACHE_WARM
from repro.service.service import PlanningService
from repro.service.shard import WorkerPoolService

#: Policies compared by the default experiment.
DEFAULT_POLICIES = ("fair", "edf", "alpha_greedy")

TOPOLOGIES = ("chain", "star", "cycle", "clique")


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the convention of the figure experiments)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def generated_request_specs(
    jobs: int,
    tables: int = 4,
    seeds: Sequence[int] = (0, 1, 2),
) -> List[str]:
    """An arrival sequence cycling topologies and seeds (deterministic)."""
    specs = []
    for index in range(jobs):
        topology = TOPOLOGIES[index % len(TOPOLOGIES)]
        seed = seeds[(index // len(TOPOLOGIES)) % len(seeds)]
        specs.append(f"gen:{topology}:{tables}:{seed}")
    return specs


def _submit_open_loop(
    service: PlanningService,
    requests: Sequence[OptimizeRequest],
    arrival_interval: float,
    deadlines: Optional[Sequence[float]] = None,
) -> List[str]:
    """Submit on a fixed arrival schedule; returns the tickets in order."""
    tickets: List[str] = []
    start = time.monotonic()
    for index, request in enumerate(requests):
        arrival = start + index * arrival_interval
        delay = arrival - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        deadline = deadlines[index] if deadlines is not None else None
        tickets.append(service.submit(request, deadline_seconds=deadline))
    return tickets


def _collect_latencies(
    service,
    tickets: Sequence[str],
    target_alpha: float,
) -> Dict[str, object]:
    """Wait for every ticket; shared latency/cache metrics for one phase.

    Works against both serving tiers — ``PlanningService`` and
    ``WorkerPoolService`` expose the same job bookkeeping (``submitted_at``,
    ``first_update_at``, per-update alphas) on the caller's side of the wire.
    """
    ttff: List[float] = []
    tta: List[float] = []
    statuses = {CACHE_MISS: 0, CACHE_HIT: 0, CACHE_WARM: 0}
    first_submit = math.inf
    last_finish = 0.0
    for ticket in tickets:
        service.wait(ticket, timeout=300.0)
        job = service.job(ticket)
        statuses[job.cache_status] = statuses.get(job.cache_status, 0) + 1
        first_submit = min(first_submit, job.submitted_at)
        last_finish = max(last_finish, job.finished_at or job.submitted_at)
        if job.first_update_at is not None:
            ttff.append(job.first_update_at - job.submitted_at)
        for alpha, stamp in zip(job.alphas, job.update_times):
            if alpha <= target_alpha:
                tta.append(stamp - job.submitted_at)
                break
    makespan = max(last_finish - first_submit, 1e-9)
    return {
        "jobs": len(tickets),
        "throughput_jobs_per_s": len(tickets) / makespan,
        "ttff_p50_ms": percentile(ttff, 0.50) * 1000.0,
        "ttff_p95_ms": percentile(ttff, 0.95) * 1000.0,
        "ttff_p99_ms": percentile(ttff, 0.99) * 1000.0,
        "tta_p50_ms": percentile(tta, 0.50) * 1000.0,
        "tta_p95_ms": percentile(tta, 0.95) * 1000.0,
        "tta_p99_ms": percentile(tta, 0.99) * 1000.0,
        "cache_miss": statuses.get(CACHE_MISS, 0),
        "cache_hit": statuses.get(CACHE_HIT, 0),
        "cache_warm": statuses.get(CACHE_WARM, 0),
    }


def _phase_metrics(
    service: PlanningService,
    tickets: Sequence[str],
    target_alpha: float,
    invocations_before: int,
) -> Dict[str, object]:
    metrics = _collect_latencies(service, tickets, target_alpha)
    metrics["invocations_run"] = (
        service.scheduler.invocations_run - invocations_before
    )
    metrics["max_live_sessions"] = service.scheduler.max_live_seen
    return metrics


def run_service_load(
    config: Optional[ExperimentConfig] = None,
    policies: Sequence[str] = DEFAULT_POLICIES,
    jobs: int = 12,
    workers: int = 4,
    max_sessions: int = 8,
    levels: int = 3,
    tables: int = 4,
    arrival_interval: float = 0.002,
) -> ExperimentResult:
    """Run the open-loop load experiment; one row per (policy, phase).

    Every policy sees the identical arrival sequence; the cold and warm phase
    of one policy share one service instance (and therefore one frontier
    cache), so the warm phase measures pure cache replay.
    """
    config = config or config_from_environment()
    specs = generated_request_specs(jobs, tables=tables)
    requests = [
        OptimizeRequest(workload=spec, levels=levels, scale=config.name)
        for spec in specs
    ]
    # Staggered scheduling deadlines exercise the EDF ordering; they never
    # terminate sessions (only the request Budget can do that).
    deadlines = [0.5 + 0.05 * index for index in range(jobs)]
    target_alpha = requests[0].budget.target_alpha or _schedule_target(requests[0])
    rows: List[Dict[str, object]] = []
    for policy in policies:
        with PlanningService(
            policy=policy,
            workers=workers,
            max_sessions=max_sessions,
            max_queue=max(jobs, 16),
            cache=FrontierCache(),
        ) as service:
            for phase in ("cold", "warm"):
                before = service.scheduler.invocations_run
                # Per-phase concurrency high-water mark: warm-phase replays
                # never open live sessions and must report 0, not the cold
                # phase's peak.
                service.scheduler.reset_max_live_seen()
                tickets = _submit_open_loop(
                    service, requests, arrival_interval, deadlines
                )
                metrics = _phase_metrics(service, tickets, target_alpha, before)
                rows.append({"policy": policy, "phase": phase, **metrics})
    return ExperimentResult(
        name="service_load",
        description=(
            "Open-loop load against the concurrent planning service: "
            f"{jobs} generated workloads ({tables} tables), {workers} scheduler "
            f"worker(s), {max_sessions} max live sessions, levels={levels}, "
            f"scale={config.name}.  Cold = empty frontier cache; warm = same "
            "requests again, answered by cache replay without re-running any "
            "optimizer invocation."
        ),
        rows=rows,
    )


def _schedule_target(request: OptimizeRequest) -> float:
    from repro.api.request import PRECISION_SETTINGS

    return PRECISION_SETTINGS[request.precision].target_precision


# ----------------------------------------------------------------------
# Worker-count scaling sweep (the sharded tier)
# ----------------------------------------------------------------------
def _pool_invocations(pool: WorkerPoolService) -> int:
    return int(pool.stats()["scheduler"]["invocations_run"])


def _reassigning_request(levels: int, scale: str) -> OptimizeRequest:
    """A workload whose fingerprint moves to shard-1 once it joins the ring.

    ``HashRing`` assignment is deterministic, so searching seeds makes the
    scale-out scenario reproducible instead of hash-lucky.
    """
    from repro.api.registry import planner_registry
    from repro.api.request import resolve_request
    from repro.service.frontier_cache import request_fingerprint
    from repro.service.routing import HashRing

    ring = HashRing()
    ring.add("shard-0")
    ring.add("shard-1")
    canonical = planner_registry().get("iama").name
    for seed in range(64):
        request = OptimizeRequest(
            workload=f"gen:star:5:{seed}", levels=levels, scale=scale
        )
        key = request_fingerprint(resolve_request(request), canonical)
        if ring.assign(key) == "shard-1":
            return request
    raise AssertionError("no reassigning seed in range; ring changed?")


def _scale_out_row(levels: int, scale: str, cpus: int) -> Dict[str, object]:
    """One cross-shard warm start: park on shard-0, add a shard, resubmit.

    The parked session's owner changes when the ring grows, so the warm
    resubmit forces a session migration: the session pickle, arena columns
    included, crosses the pipe to the new owner.
    """
    from repro.api import Budget

    request = _reassigning_request(levels, scale)
    capped = request.with_overrides(budget=Budget(max_invocations=1))
    with WorkerPoolService(workers=1) as pool:
        pool.result(pool.submit(capped), timeout=120.0)
        pool.add_shard()
        before = _pool_invocations(pool)
        start = time.monotonic()
        ticket = pool.submit(request)
        pool.result(ticket, timeout=120.0)
        warm_ms = (time.monotonic() - start) * 1000.0
        status = pool.poll(ticket)["cache_status"]
        cache = pool.stats()["cache"]
        return {
            "workers": 2,
            "phase": "scale-out",
            "cpu_count": cpus,
            "jobs": 1,
            "cache_warm": 1 if status == CACHE_WARM else 0,
            "invocations_run": _pool_invocations(pool) - before,
            "warm_resume_ms": warm_ms,
            "migrations": int(cache["migrations"]),
            "migrated_inline_bytes": int(cache["migrated_inline_bytes"]),
        }


def run_service_scaling(
    config: Optional[ExperimentConfig] = None,
    workers_list: Sequence[int] = (1, 2, 4),
    policy: str = "fair",
    jobs: int = 12,
    max_sessions: int = 8,
    levels: int = 3,
    tables: int = 4,
    arrival_interval: float = 0.002,
) -> ExperimentResult:
    """Sweep the sharded worker pool over ``workers_list``.

    Per worker count, the identical arrival sequence runs twice against one
    fresh :class:`WorkerPoolService` (so one shared persistent cache tier):

    * **cold** — every shard computes its slice of the key space; this is the
      phase whose throughput should scale with workers when the machine has
      the cores to back them;
    * **warm** — the same requests again, all answered by cache replay across
      the pool: zero optimizer invocations, regardless of worker count.

    Cold rows carry ``speedup_vs_first`` — cold throughput relative to the
    first (smallest) swept worker count on this machine.  ``cpu_count`` is
    recorded per row: on a box with fewer cores than workers the cold phase
    cannot scale, and the row says so instead of lying about linearity.

    After the sweep, one ``scale-out`` row measures a cross-shard warm
    start: a session parks on shard-0, the ring grows, and the resubmit
    lands on shard-1, migrating the parked session.  Its
    ``migrated_inline_bytes`` is the session pickle that crossed the pipe.
    """
    config = config or config_from_environment()
    specs = generated_request_specs(jobs, tables=tables)
    requests = [
        OptimizeRequest(workload=spec, levels=levels, scale=config.name)
        for spec in specs
    ]
    target_alpha = requests[0].budget.target_alpha or _schedule_target(requests[0])
    cpus = os.cpu_count() or 1
    rows: List[Dict[str, object]] = []
    for workers in workers_list:
        with WorkerPoolService(
            workers=workers,
            policy=policy,
            max_sessions=max_sessions,
            max_queue=max(jobs, 16),
        ) as pool:
            for phase in ("cold", "warm"):
                before = _pool_invocations(pool)
                tickets = _submit_open_loop(pool, requests, arrival_interval)
                metrics = _collect_latencies(pool, tickets, target_alpha)
                metrics["invocations_run"] = _pool_invocations(pool) - before
                rows.append(
                    {
                        "workers": workers,
                        "phase": phase,
                        "cpu_count": cpus,
                        **metrics,
                    }
                )
    baseline = next(
        (
            row
            for row in rows
            if row["workers"] == workers_list[0] and row["phase"] == "cold"
        ),
        None,
    )
    if baseline is not None:
        for row in rows:
            if row["phase"] == "cold":
                row["speedup_vs_first"] = round(
                    row["throughput_jobs_per_s"]
                    / baseline["throughput_jobs_per_s"],
                    3,
                )
    rows.append(_scale_out_row(levels, config.name, cpus))
    return ExperimentResult(
        name="service_scaling",
        description=(
            "Worker-count sweep of the sharded serving tier "
            f"(WorkerPoolService, policy={policy}): {jobs} generated "
            f"workloads ({tables} tables, levels={levels}, scale="
            f"{config.name}) per phase, workers swept over "
            f"{list(workers_list)} on a machine with {cpus} CPU core(s).  "
            "Cold = every shard computes its slice of the fingerprint key "
            "space; warm = identical requests again, answered by cache "
            "replay across the pool with zero optimizer invocations.  "
            "speedup_vs_first compares cold throughput against the smallest "
            "swept worker count; near-linear scaling requires at least as "
            "many CPU cores as workers.  The scale-out row measures one "
            "cross-shard warm start (park on shard-0, grow the ring, "
            "resubmit to shard-1): migrated_inline_bytes is the "
            "session-pickle payload that crossed the pipe."
        ),
        rows=rows,
    )


def _main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    from repro.bench.export import write_text_report
    from repro.bench.reporting import format_rows

    parser = argparse.ArgumentParser(
        description="Worker-count scaling sweep of the sharded serving tier."
    )
    parser.add_argument(
        "--workers-sweep",
        default="1,2,4",
        help="comma-separated worker counts to sweep (default: 1,2,4)",
    )
    parser.add_argument("--jobs", type=int, default=12)
    parser.add_argument("--policy", default="fair")
    parser.add_argument("--levels", type=int, default=3)
    parser.add_argument("--tables", type=int, default=4)
    parser.add_argument("--max-sessions", type=int, default=8)
    parser.add_argument("--arrival-interval", type=float, default=0.002)
    parser.add_argument(
        "--output-dir",
        default=None,
        help="write results/<name>.txt here (default: print only)",
    )
    args = parser.parse_args(argv)
    workers_list = tuple(
        int(token) for token in args.workers_sweep.split(",") if token.strip()
    )
    if not workers_list or any(count < 1 for count in workers_list):
        parser.error("--workers-sweep needs positive integers, e.g. 1,2,4")
    result = run_service_scaling(
        workers_list=workers_list,
        policy=args.policy,
        jobs=args.jobs,
        max_sessions=args.max_sessions,
        levels=args.levels,
        tables=args.tables,
        arrival_interval=args.arrival_interval,
    )
    print(result.description)
    print()
    print(format_rows(result))
    if args.output_dir is not None:
        path = write_text_report(result, args.output_dir)
        print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
