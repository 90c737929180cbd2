"""Command-line interface for the reproduction.

The CLI exposes the most common workflows without writing Python:

* ``python -m repro.cli workload``            -- list the TPC-H join blocks,
* ``python -m repro.cli planners``            -- list the planners,
* ``python -m repro.cli optimize tpch_q03``   -- run an anytime sweep on one block
  and print the frontier,
* ``python -m repro.cli experiment figure3``  -- run one of the paper experiments
  and print/export its rows,
* ``python -m repro.cli bench``               -- run registered experiments
  and write their ``results/<name>.txt`` reports,
* ``python -m repro.cli compare tpch_q05``    -- compare IAMA against the two
  baselines on one block,
* ``python -m repro.cli serve --port 8723``   -- run the concurrent planning
  service (scheduler + frontier cache + JSON wire protocol),
* ``python -m repro.cli submit gen:star:6:42 --stream`` -- submit a workload
  to a running planning service and stream its frontier updates.

``optimize`` and ``compare`` run through the unified planner API
(:mod:`repro.api`): any planner of :data:`~repro.api.planners.PLANNERS` is
selectable with ``--algorithm``, workloads may be TPC-H blocks
(``tpch_q03``/``q03``), generated specs (``gen:star:6:42``), real SQL
(``sql:select ...``, ``sql:path.sql``, ``sql:tpch/q03``) or seeded template
instantiations (``template:ss_item_date:7``), and ``--json`` emits the versioned
:class:`~repro.api.schema.OptimizationResult` payload.

All commands accept ``--scale tiny|smoke|paper`` (default: the
``REPRO_BENCH_SCALE`` environment variable, falling back to ``smoke``).
"""

from __future__ import annotations

import argparse
import json as json_module
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.api import PLANNERS, Budget, OptimizeRequest, open_session
from repro.bench.config import (
    CONFIG_PRESETS,
    ExperimentConfig,
    FINE_PRECISION,
    MODERATE_PRECISION,
    config_from_environment,
)
from repro.bench.experiments import ExperimentResult, speedup_summary
from repro.bench.export import write_csv, write_json, write_text_report
from repro.bench.registry import get_spec, registered_names
from repro.bench.reporting import format_grouped_times, format_rows
from repro.bench.runner import AlgorithmName
from repro.costs.pareto import pareto_filter
from repro.workloads.spec import FAMILY_HELP
from repro.workloads.tpch import tpch_blocks_by_table_count

GROUPED_EXPERIMENTS = {"figure3", "figure4", "figure5"}

SCALE_CHOICES = tuple(sorted(CONFIG_PRESETS))


def _resolve_config(scale: Optional[str]) -> ExperimentConfig:
    if scale is None:
        return config_from_environment()
    factory = CONFIG_PRESETS.get(scale)
    if factory is None:
        expected = ", ".join(SCALE_CHOICES)
        raise SystemExit(f"unknown scale {scale!r}; expected one of: {expected}")
    return factory()


#: Planner name -> display label for the comparison table.
_PLANNER_LABELS = {algorithm.value: algorithm.label for algorithm in AlgorithmName}


def _open_session(args: argparse.Namespace, algorithm: str):
    """Open a planner session for an optimize/compare invocation."""
    try:
        request = OptimizeRequest(
            workload=args.query,
            algorithm=algorithm,
            scale=args.scale,
            levels=args.levels,
            precision=args.precision,
        )
        return open_session(request)
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        raise SystemExit(message)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_workload(args: argparse.Namespace) -> int:
    """List the TPC-H join blocks and query templates by join-count band."""
    from repro.workloads.templates import templates_by_band

    grouped = tpch_blocks_by_table_count()
    print(f"{'tables':>7}  blocks")
    for count, queries in grouped.items():
        names = ", ".join(query.name for query in queries)
        print(f"{count:>7}  {names}")
    print()
    print(f"{'joins':>7}  templates (use template:<name>:<seed>)")
    for joins, entries in templates_by_band().items():
        names = ", ".join(template.name for template in entries)
        print(f"{joins:>7}  {names}")
    return 0


def cmd_planners(args: argparse.Namespace) -> int:
    """List the planners of the unified API."""
    for name, driver in PLANNERS.items():
        print(f"{name:>18}  {driver.summary}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    """Run one planner on one workload and print (or JSON-dump) the frontier."""
    session = _open_session(args, args.algorithm)
    query = session.query
    if not args.json:
        print(
            f"optimizing {query.name} ({query.table_count} tables), "
            f"{args.levels} levels, algorithm {session.algorithm}"
        )
    for update in session.updates():
        if not args.json:
            print(
                f"  resolution {update.invocation.resolution}: "
                f"{update.invocation.duration_seconds * 1000:8.1f} ms, "
                f"{len(update.frontier)} tradeoffs"
            )
    result = session.result()
    if args.json:
        print(json_module.dumps(result.to_dict(), indent=2))
        return 0
    metric_set = session.driver.factory.metric_set
    frontier = result.frontier
    non_dominated = pareto_filter([summary.cost for summary in frontier])
    print(f"final frontier: {len(frontier)} stored, {len(non_dominated)} non-dominated")
    details = result.invocations[-1].details if result.invocations else {}
    if "arena_plans_live" in details:
        print(
            f"plan arena: {details['arena_plans_live']} live plans, "
            f"{details['arena_plans_tombstoned']} tombstoned, "
            f"~{details['arena_peak_bytes'] / 1024.0:.1f} KiB peak"
        )
    for cost in sorted(non_dominated, key=lambda c: c[0])[: args.show]:
        described = ", ".join(
            f"{name}={value:.4g}" for name, value in metric_set.describe(cost).items()
        )
        print(f"    {described}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Record one traced run; summarize its spans and export trace artifacts."""
    from repro import flags
    from repro.obs import convergence
    from repro.obs import trace as obs_trace

    with flags.overrides(tracing=True):
        obs_trace.clear()
        session = _open_session(args, args.algorithm)
        updates = list(session.updates())
        result = session.result()
        spans = obs_trace.drain()
    if args.ndjson is not None:
        obs_trace.export_ndjson(spans, args.ndjson)
        print(f"wrote {len(spans)} spans (NDJSON) to {args.ndjson}")
    if args.perfetto is not None:
        obs_trace.export_chrome_trace(spans, args.perfetto)
        print(
            f"wrote Chrome trace-event JSON ({len(spans)} spans) to "
            f"{args.perfetto} — load it at https://ui.perfetto.dev"
        )
    if args.json:
        print(json_module.dumps(spans, indent=2, sort_keys=True))
        return 0
    print(
        f"traced {session.query.name}: {len(result.invocations)} invocations, "
        f"{result.plans_generated} plans, {len(spans)} spans"
    )
    print(f"{'span':>24} {'count':>7} {'seconds':>10} {'self':>10}")
    for row in obs_trace.summarize(spans):
        print(
            f"{row['name']:>24} {row['count']:>7d} {row['seconds']:>10.4f} "
            f"{row['self_seconds']:>10.4f}"
        )
    series = convergence.series_from_updates(updates)
    print()
    print(
        convergence.render_series_table(
            series, title=f"convergence ({session.query.name}):"
        )
    )
    summary = convergence.summarize_series(series)
    print(
        f"alpha {summary['alpha_first']:.4f} -> {summary['alpha_last']:.4f} "
        f"({'monotone' if summary['alpha_monotone'] else 'NON-MONOTONE'}), "
        f"final frontier {summary['frontier_final']}"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Compare planners on one workload (default: IAMA vs the paper baselines)."""
    names = args.algorithm or [a.value for a in AlgorithmName]
    # Open every session before running any, so a bad name fails fast.
    sessions = {name: _open_session(args, name) for name in names}
    results = {name: session.run() for name, session in sessions.items()}
    if args.json:
        print(
            json_module.dumps(
                [result.to_dict() for result in results.values()], indent=2
            )
        )
        return 0
    precision = MODERATE_PRECISION if args.precision == "moderate" else FINE_PRECISION
    first = next(iter(results.values()))
    print(
        f"{first.query_name}: {args.levels} resolution levels, "
        f"target precision {precision.target_precision}"
    )
    print(f"{'algorithm':>22} {'avg (s)':>10} {'max (s)':>10} {'plans':>8} {'frontier':>9}")
    for name, result in results.items():
        durations = result.durations_seconds or [0.0]
        label = _PLANNER_LABELS.get(name, name)
        print(
            f"{label:>22} {sum(durations) / len(durations):>10.4f} "
            f"{max(durations):>10.4f} {result.plans_generated:>8d} "
            f"{result.frontier_size:>9d}"
        )
    if "iama" in results and "memoryless" in results:
        iama = results["iama"].durations_seconds
        memo = results["memoryless"].durations_seconds
        iama_avg = sum(iama) / len(iama) if iama else 0.0
        memo_avg = sum(memo) / len(memo) if memo else 0.0
        if iama_avg > 0:
            print(f"\nIAMA is {memo_avg / iama_avg:.2f}x faster than "
                  "the memoryless baseline on average invocation time.")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run one of the paper experiments and print/export its rows."""
    config = _resolve_config(args.scale)
    try:
        spec = get_spec(args.name)
    except KeyError:
        raise SystemExit(
            f"unknown experiment {args.name!r}; available: "
            f"{', '.join(registered_names())}"
        ) from None
    result = spec.run(config)
    if spec.name in GROUPED_EXPERIMENTS:
        print(format_grouped_times(result))
        print()
        print(format_grouped_times(result, "max_invocation_seconds"))
    else:
        print(format_rows(result))
    if args.csv:
        print(f"wrote {write_csv(result, args.csv)}")
    if args.json:
        print(f"wrote {write_json(result, args.json)}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run registered experiments and write their reports."""
    config = _resolve_config(args.scale)
    if args.experiment:
        names = [name.replace("-", "_") for name in args.experiment]
    else:
        names = registered_names()
    specs = []
    for name in names:
        try:
            specs.append(get_spec(name))
        except KeyError:
            available = ", ".join(registered_names())
            raise SystemExit(
                f"unknown experiment {name!r}; available: {available}"
            )
    out_dir = Path(args.out)
    results_by_name: Dict[str, ExperimentResult] = {}
    for spec in specs:
        result = spec.run(config)
        results_by_name[spec.name] = result
        sections = tuple(formatter(result) for formatter in spec.section_formatters)
        path = write_text_report(result, out_dir, extra_sections=sections)
        print(f"{spec.name}: {len(result.rows)} rows -> {path}")
    if {"figure3", "figure4", "figure5"} <= set(results_by_name):
        # speedup_summary is derived from the figure sweeps (it runs nothing
        # of its own); regenerate it alongside them so the results directory
        # stays internally consistent.
        summary = speedup_summary(
            results_by_name["figure3"],
            results_by_name["figure4"],
            results_by_name["figure5"],
        )
        path = write_text_report(summary, out_dir)
        print(f"{summary.name}: derived from figures 3-5 -> {path}")
    return 0


# ----------------------------------------------------------------------
# Planning service
# ----------------------------------------------------------------------
def build_server(args: argparse.Namespace):
    """Build (but do not run) the planning server for a ``serve`` invocation.

    Factored out of :func:`cmd_serve` so tests can run the server on an
    ephemeral port in-process and shut it down cleanly.  ``--workers 0``
    (the default) serves from one process with scheduler threads;
    ``--workers N`` puts N planner worker processes behind a consistent-hash
    ring (requests sharded by fingerprint, per-shard live cache tier plus a
    shared persistent tier).
    """
    from repro.service import PlanningServer, PlanningService, WorkerPoolService

    if args.workers > 0:
        if args.no_cache:
            raise ValueError(
                "--workers routes requests by the frontier cache fingerprint; "
                "--no-cache only applies to single-process serving"
            )
        service = WorkerPoolService(
            workers=args.workers,
            max_sessions=args.max_sessions,
            max_queue=args.queue_size,
            cache_bytes=args.cache_mb << 20,
            cache_dir=args.cache_dir,
        )
    else:
        service = PlanningService(
            workers=args.jobs,
            max_sessions=args.max_sessions,
            max_queue=args.queue_size,
            cache=False if args.no_cache else None,
            cache_bytes=args.cache_mb << 20,
            cache_dir=args.cache_dir,
        )
    return PlanningServer(
        service, host=args.host, port=args.port, verbose=args.verbose
    )


class _GracefulExit(Exception):
    """Raised out of the serve loop by the SIGTERM/SIGINT handler."""

    def __init__(self, signame: str):
        super().__init__(signame)
        self.signame = signame


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the concurrent planning service until interrupted.

    SIGTERM and SIGINT shut down gracefully: stop admitting, drain in-flight
    jobs for up to ``--drain-seconds``, flush the persistent cache tier, and
    exit 0.
    """
    import signal as signal_module

    try:
        server = build_server(args)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot start planning service: {exc}")
    host, port = server.address
    tier = (
        f"{args.workers} worker process(es)"
        if args.workers > 0
        else f"{args.jobs} scheduler thread(s)"
    )
    print(
        f"planning service listening on http://{host}:{port} "
        f"({tier}, "
        f"max {args.max_sessions} live sessions, "
        f"cache {'off' if args.no_cache else f'{args.cache_mb} MiB'})",
        flush=True,
    )

    def _on_signal(signum, frame):
        raise _GracefulExit(signal_module.Signals(signum).name)

    previous = {
        sig: signal_module.signal(sig, _on_signal)
        for sig in (signal_module.SIGTERM, signal_module.SIGINT)
    }
    try:
        server.serve_forever()
    except (_GracefulExit, KeyboardInterrupt) as exc:
        signame = getattr(exc, "signame", "SIGINT")
        print(
            f"\n{signame}: draining in-flight jobs "
            f"(up to {args.drain_seconds:g} s), flushing cache",
            flush=True,
        )
    finally:
        for sig, handler in previous.items():
            signal_module.signal(sig, handler)
        server.close(drain_seconds=args.drain_seconds)
    print("planning service stopped", flush=True)
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit one workload to a running planning service."""
    from repro.interactive.visualize import format_stream_line
    from repro.service import ServiceClient, ServiceClientError

    try:
        request = OptimizeRequest(
            workload=args.query,
            algorithm=args.algorithm,
            scale=args.scale,
            levels=args.levels,
            precision=args.precision,
            budget=Budget(
                deadline_seconds=args.budget_seconds,
                max_invocations=args.max_invocations,
                target_alpha=args.target_alpha,
            ),
        )
    except (ValueError, KeyError) as exc:
        raise SystemExit(exc.args[0] if exc.args else str(exc))
    client = ServiceClient(args.host, args.port)
    try:
        status = client.submit(request)
        ticket = status["ticket"]
        if not args.json:
            print(f"submitted {args.query} as {ticket} (state {status['state']})")
        if args.stream:
            for payload in client.stream(ticket):
                if payload.get("kind") != "frontier_update":
                    continue  # the trailing job_status line
                if args.json:
                    print(json_module.dumps(payload))
                else:
                    print(format_stream_line(payload))
        result = client.result(ticket, timeout=args.timeout)
        final = client.poll(ticket)
    except ServiceClientError as exc:
        raise SystemExit(str(exc))
    except (ConnectionError, OSError) as exc:
        raise SystemExit(
            f"cannot reach a planning service at "
            f"http://{args.host}:{args.port} ({exc}); start one with "
            "'repro-moqo serve'"
        )
    if args.json:
        print(json_module.dumps(result.to_dict(), indent=2))
        return 0
    print(
        f"cache: {final['cache_status']}; finish reason: {result.finish_reason}; "
        f"{len(result.invocations)} invocations, "
        f"{result.frontier_size} tradeoffs"
    )
    for summary in sorted(result.frontier, key=lambda s: s.cost[0])[: args.show]:
        described = ", ".join(
            f"{name}={value:.4g}"
            for name, value in zip(result.metric_names, summary.cost)
        )
        print(f"    {described}")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'An Incremental Anytime Algorithm for "
        "Multi-Objective Query Optimization' (SIGMOD 2015).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    workload = subparsers.add_parser("workload", help="list the TPC-H join blocks")
    workload.set_defaults(handler=cmd_workload)

    planners = subparsers.add_parser(
        "planners", help="list the planners of the unified API"
    )
    planners.set_defaults(handler=cmd_planners)

    workload_help = f"workload: {FAMILY_HELP}"

    optimize = subparsers.add_parser("optimize", help="anytime sweep on one workload")
    optimize.add_argument("query", help=workload_help)
    optimize.add_argument(
        "--algorithm",
        default="iama",
        help="planner name (see the 'planners' command)",
    )
    optimize.add_argument("--levels", type=int, default=5)
    optimize.add_argument("--precision", choices=("moderate", "fine"), default="moderate")
    optimize.add_argument("--scale", choices=SCALE_CHOICES, default=None)
    optimize.add_argument("--show", type=int, default=10, help="frontier points to print")
    optimize.add_argument(
        "--json",
        action="store_true",
        help="emit the versioned OptimizationResult JSON payload",
    )
    optimize.set_defaults(handler=cmd_optimize)

    trace = subparsers.add_parser(
        "trace",
        help="run one traced optimization and summarize/export its spans",
    )
    trace.add_argument("query", help=workload_help)
    trace.add_argument(
        "--algorithm",
        default="iama",
        help="planner name (see the 'planners' command)",
    )
    trace.add_argument("--levels", type=int, default=5)
    trace.add_argument("--precision", choices=("moderate", "fine"), default="moderate")
    trace.add_argument("--scale", choices=SCALE_CHOICES, default=None)
    trace.add_argument(
        "--perfetto",
        type=Path,
        default=None,
        metavar="OUT.json",
        help="export the Chrome trace-event JSON (loadable at ui.perfetto.dev)",
    )
    trace.add_argument(
        "--ndjson",
        type=Path,
        default=None,
        metavar="OUT.ndjson",
        help="export raw spans, one JSON object per line",
    )
    trace.add_argument(
        "--json",
        action="store_true",
        help="print the raw span list as JSON instead of the summary tables",
    )
    trace.set_defaults(handler=cmd_trace)

    compare = subparsers.add_parser("compare", help="compare planners on one workload")
    compare.add_argument("query", help=workload_help)
    compare.add_argument(
        "--algorithm",
        action="append",
        default=None,
        metavar="NAME",
        help="planner to compare (repeatable; default: IAMA vs the paper baselines)",
    )
    compare.add_argument("--levels", type=int, default=5)
    compare.add_argument("--precision", choices=("moderate", "fine"), default="moderate")
    compare.add_argument("--scale", choices=SCALE_CHOICES, default=None)
    compare.add_argument(
        "--json",
        action="store_true",
        help="emit one OptimizationResult JSON payload per planner",
    )
    compare.set_defaults(handler=cmd_compare)

    experiment = subparsers.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument("name", help=f"one of: {', '.join(registered_names())}")
    experiment.add_argument("--scale", choices=SCALE_CHOICES, default=None)
    experiment.add_argument("--csv", type=Path, default=None, help="export rows as CSV")
    experiment.add_argument("--json", type=Path, default=None, help="export rows as JSON")
    experiment.set_defaults(handler=cmd_experiment)

    bench = subparsers.add_parser(
        "bench",
        help="run registered experiments and write their reports",
    )
    bench.add_argument(
        "--experiment",
        action="append",
        default=None,
        metavar="NAME",
        help="registered experiment to run (repeatable; default: all)",
    )
    bench.add_argument(
        "--out",
        type=Path,
        default=Path("results"),
        help="directory for the results/<name>.txt reports (default: results)",
    )
    bench.add_argument("--scale", choices=SCALE_CHOICES, default=None)
    bench.set_defaults(handler=cmd_bench)

    serve = subparsers.add_parser(
        "serve",
        help="run the concurrent planning service (scheduler + frontier "
        "cache + JSON wire protocol)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8723)
    serve.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="scheduler worker threads sharing invocation timeslices (default: 2)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="planner worker processes behind a consistent-hash ring; 0 "
        "serves from this process with --jobs threads (default: 0)",
    )
    serve.add_argument(
        "--drain-seconds",
        type=float,
        default=10.0,
        help="on SIGTERM/SIGINT, wait up to this long for in-flight jobs "
        "before closing (default: 10)",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=8,
        help="admission control: maximum concurrently live sessions (default: 8)",
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=64,
        help="backlog length before submissions get HTTP 503 (default: 64)",
    )
    serve.add_argument(
        "--cache-mb",
        type=int,
        default=64,
        help="frontier cache byte budget in MiB (default: 64)",
    )
    serve.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="persist cached frontiers under this directory (default: memory only)",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the cross-request frontier cache",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve.set_defaults(handler=cmd_serve)

    submit = subparsers.add_parser(
        "submit", help="submit one workload to a running planning service"
    )
    submit.add_argument("query", help=workload_help)
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=8723)
    submit.add_argument(
        "--algorithm",
        default="iama",
        help="planner name (see the 'planners' command)",
    )
    submit.add_argument("--levels", type=int, default=5)
    submit.add_argument(
        "--precision", choices=("moderate", "fine"), default="moderate"
    )
    submit.add_argument("--scale", choices=SCALE_CHOICES, default=None)
    submit.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="session wall-clock budget (Budget.deadline_seconds)",
    )
    submit.add_argument(
        "--max-invocations",
        type=int,
        default=None,
        help="session invocation budget (Budget.max_invocations)",
    )
    submit.add_argument(
        "--target-alpha",
        type=float,
        default=None,
        help="stop once this precision factor is reached (Budget.target_alpha)",
    )
    submit.add_argument(
        "--stream",
        action="store_true",
        help="print one line (or JSON payload) per frontier update as it arrives",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="give up waiting for the result after this many seconds",
    )
    submit.add_argument(
        "--show", type=int, default=10, help="frontier points to print"
    )
    submit.add_argument(
        "--json",
        action="store_true",
        help="emit the versioned OptimizationResult JSON payload",
    )
    submit.set_defaults(handler=cmd_submit)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro.cli`` and the tests."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
