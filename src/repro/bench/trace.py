"""Trace replayer: realistic skewed traffic against the serving tier.

The PR-5/6 load experiments submit a uniform one-shot arrival sequence — a
shape that never exercises the code paths the frontier cache and warm-start
machinery were built for.  Production optimizer traffic is *template-skewed*
(the redbench observation): a few query templates dominate, many arrivals are
exact repeats, others are re-instantiations of a popular template with fresh
parameters, and load comes in bursts.

This module synthesizes such traces from the TPC-DS-style template workloads
(:mod:`repro.workloads.templates`) and replays them against the planning
service, reporting the cache hit/warm/miss mix and p50/p95/p99
time-to-first-frontier per trace shape.  Three shipped shapes span the
spectrum the acceptance gate cares about:

* ``uniform_oneshot`` — every arrival is a distinct template instantiation:
  all misses, the PR-5 baseline shape.
* ``zipf_repeat`` — Zipf-skewed popularity over a small population of exact
  ``(template, seed)`` pairs, arriving in bursts.  Each pair's first touch is
  a cheap one-invocation *probe* (an interactive user peeking at the first
  frontier), so later full-budget arrivals warm-start from the parked probe
  and exact repeats replay as hits.
* ``template_reinstantiate`` — the same skewed popularity, but every arrival
  draws fresh template parameters: the shape repeats while the workload
  fingerprint does not, so the cache (correctly) misses — templates must not
  alias.

Determinism: the arrival sequence is a pure function of ``(shape, seed)``
(string-seeded ``random.Random``), and the registered ``trace_replay``
experiment runs through the PR-2 cell scheduler — the cache mix, counts and
digests in ``results/trace_replay.txt`` are byte-stable across warm-cache
reruns; only the recorded latencies are wall-clock.  Replay uses the
manual-mode service (``workers=0`` + ``step_once``), so scheduling order and
cache statuses are deterministic too.

Standalone::

    python -m repro.bench.trace --output-dir results --check
    python -m repro.bench.trace --workers 4          # sharded tier, open loop
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.config import ExperimentConfig
from repro.bench.registry import (
    Cell,
    CellOutcomes,
    CellPayload,
    ExperimentSpec,
    register,
)

EXPERIMENT_NAME = "trace_replay"

#: Templates drawn by the shipped shapes (bands 2-4 keep replay fast; the
#: bigger bands exist for standalone runs via ``--bands``).
DEFAULT_TEMPLATES = ("ss_item_date", "ss_store_monthly", "ss_customer_funnel")

#: The repeat-heavy shape must beat this shape's hit+warm fraction strictly
#: (the acceptance gate of the experiment).
UNIFORM_SHAPE = "uniform_oneshot"
REPEAT_SHAPE = "zipf_repeat"


# ----------------------------------------------------------------------
# Shapes and synthesis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceShape:
    """One traffic shape: population, skew, repeat mix, burst cadence.

    Attributes
    ----------
    name / description:
        Identity and the one-line report blurb.
    events:
        Arrivals in the trace.
    population:
        Distinct ``(template, instantiation seed)`` pairs arrivals draw from.
    zipf_s:
        Zipf exponent of pair popularity (weight ``1/rank^s``); ``0`` means
        uniform round-robin with no repeats (population is consumed in order).
    repeat_exact:
        ``True`` — repeat arrivals reuse the pair's instantiation seed (exact
        repeats, cacheable); ``False`` — every arrival re-instantiates its
        template with a fresh seed (same shape, different workload).
    probe_first:
        ``True`` — the first arrival of each pair carries a one-invocation
        budget, parking a warm-startable prefix for later full arrivals.
    burst_every / burst_size:
        Every ``burst_every``-th tick admits ``burst_size`` arrivals at once
        (``0`` disables bursts: one arrival per tick, a steady phase).
    """

    name: str
    description: str
    events: int = 18
    population: int = 4
    zipf_s: float = 1.5
    repeat_exact: bool = True
    probe_first: bool = False
    burst_every: int = 0
    burst_size: int = 1


SHAPES: Tuple[TraceShape, ...] = (
    TraceShape(
        name=UNIFORM_SHAPE,
        description="uniform one-shot: every arrival a distinct instantiation",
        events=12,
        population=12,
        zipf_s=0.0,
    ),
    TraceShape(
        name=REPEAT_SHAPE,
        description="Zipf-skewed exact repeats with probe-first warm starts",
        events=18,
        population=4,
        zipf_s=1.5,
        repeat_exact=True,
        probe_first=True,
        burst_every=4,
        burst_size=3,
    ),
    TraceShape(
        name="template_reinstantiate",
        description="Zipf-skewed template popularity, fresh parameters per arrival",
        events=12,
        population=4,
        zipf_s=1.5,
        repeat_exact=False,
        burst_every=4,
        burst_size=3,
    ),
)

_SHAPES_BY_NAME: Dict[str, TraceShape] = {shape.name: shape for shape in SHAPES}


def shape_names() -> Tuple[str, ...]:
    return tuple(shape.name for shape in SHAPES)


def get_shape(name: str) -> TraceShape:
    try:
        return _SHAPES_BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown trace shape {name!r}; shipped shapes: "
            f"{', '.join(shape_names())}"
        ) from None


@dataclass(frozen=True)
class TraceEvent:
    """One arrival: which tick it lands on, what it submits, how eagerly."""

    tick: int
    spec: str  # a template:<name>:<seed> workload spec
    template: str
    kind: str  # "full" | "probe" (one-invocation budget)


def _zipf_weights(population: int, s: float) -> List[float]:
    return [1.0 / float(rank + 1) ** s for rank in range(population)]


def synthesize_trace(
    shape: TraceShape,
    seed: int,
    templates: Sequence[str] = DEFAULT_TEMPLATES,
) -> List[TraceEvent]:
    """Deterministic arrival sequence for one shape.

    A pure function of ``(shape, seed, templates)``: the generator is seeded
    with the string ``f"{shape.name}:{seed}"`` (SHA-512-based seeding — the
    same bytes in every process regardless of hash randomization).
    """
    rng = Random(f"{shape.name}:{seed}")
    # The population: pair index -> (template, instantiation seed).  Seeds are
    # namespaced by the trace seed so two traces never alias by accident.
    pairs = [
        (templates[index % len(templates)], seed * 1000 + index)
        for index in range(shape.population)
    ]
    weights = _zipf_weights(shape.population, shape.zipf_s)
    events: List[TraceEvent] = []
    seen: set = set()
    tick = 0
    in_tick = 0
    for arrival in range(shape.events):
        capacity = (
            shape.burst_size
            if shape.burst_every and tick % shape.burst_every == 0
            else 1
        )
        if in_tick >= capacity:
            tick += 1
            in_tick = 0
        in_tick += 1
        if shape.zipf_s == 0.0:
            index = arrival % shape.population  # round-robin, no repeats
        else:
            index = rng.choices(range(shape.population), weights=weights)[0]
        template, pair_seed = pairs[index]
        if not shape.repeat_exact:
            # Fresh parameters per arrival: unique seed, same template.
            pair_seed = pair_seed * 10_000 + arrival
        kind = "full"
        if shape.probe_first and index not in seen:
            kind = "probe"
        seen.add(index)
        events.append(
            TraceEvent(
                tick=tick,
                spec=f"template:{template}:{pair_seed}",
                template=template,
                kind=kind,
            )
        )
    return events


def trace_jsonable(events: Sequence[TraceEvent]) -> List[Dict[str, object]]:
    """The arrival sequence as JSON rows (determinism tests compare these)."""
    return [
        {"tick": e.tick, "spec": e.spec, "template": e.template, "kind": e.kind}
        for e in events
    ]


def trace_digest(events: Sequence[TraceEvent]) -> str:
    from repro.bench.ablation import digest_of

    return digest_of(trace_jsonable(events))


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def _request_for(event: TraceEvent, levels: int, scale: Optional[str]):
    from repro.api.request import Budget, OptimizeRequest

    budget = Budget(max_invocations=1) if event.kind == "probe" else Budget()
    return OptimizeRequest(
        workload=event.spec, levels=levels, scale=scale, budget=budget
    )


def _collect(service, tickets: Sequence[str]) -> Dict[str, object]:
    """Cache mix and time-to-first-frontier percentiles over finished jobs."""
    from repro.bench.service_load import percentile
    from repro.service.protocol import CACHE_HIT, CACHE_MISS, CACHE_WARM

    statuses = {CACHE_MISS: 0, CACHE_HIT: 0, CACHE_WARM: 0}
    ttff: List[float] = []
    for ticket in tickets:
        service.wait(ticket, timeout=300.0)
        job = service.job(ticket)
        statuses[job.cache_status] = statuses.get(job.cache_status, 0) + 1
        if job.first_update_at is not None:
            ttff.append(job.first_update_at - job.submitted_at)
    total = max(len(tickets), 1)
    hits = statuses.get(CACHE_HIT, 0)
    warms = statuses.get(CACHE_WARM, 0)
    return {
        "jobs": len(tickets),
        "cache_miss": statuses.get(CACHE_MISS, 0),
        "cache_hit": hits,
        "cache_warm": warms,
        "hit_warm_fraction": (hits + warms) / total,
        "ttff_p50_ms": percentile(ttff, 0.50) * 1000.0,
        "ttff_p95_ms": percentile(ttff, 0.95) * 1000.0,
        "ttff_p99_ms": percentile(ttff, 0.99) * 1000.0,
    }


def replay_manual(
    service,
    events: Sequence[TraceEvent],
    levels: int,
    scale: Optional[str],
    steps_per_tick: int = 2,
) -> Dict[str, object]:
    """Replay against a manual-mode service (``workers=0``), deterministically.

    Arrivals are grouped by tick; after each tick's submissions the scheduler
    advances ``steps_per_tick`` invocation slices, so bursts genuinely overlap
    in flight (the scheduling policy shapes their interleaving) while the
    whole run stays single-threaded and reproducible.  The queue is drained at
    the end; cache statuses are decided at submit time, so the mix is exact.
    """
    tickets: List[str] = []
    by_tick: Dict[int, List[TraceEvent]] = {}
    for event in events:
        by_tick.setdefault(event.tick, []).append(event)
    for tick in sorted(by_tick):
        for event in by_tick[tick]:
            tickets.append(service.submit(_request_for(event, levels, scale)))
        for _ in range(steps_per_tick):
            if service.step_once() is None:
                break
    while service.step_once() is not None:
        pass
    return _collect(service, tickets)


def replay_open_loop(
    service,
    events: Sequence[TraceEvent],
    levels: int,
    scale: Optional[str],
    tick_seconds: float = 0.005,
) -> Dict[str, object]:
    """Replay against a live tier (threaded ``PlanningService`` or the sharded
    ``WorkerPoolService``): ticks map to a wall-clock arrival schedule."""
    tickets: List[str] = []
    start = time.monotonic()
    for event in events:
        arrival = start + event.tick * tick_seconds
        delay = arrival - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        tickets.append(service.submit(_request_for(event, levels, scale)))
    return _collect(service, tickets)


# ----------------------------------------------------------------------
# The registered experiment
# ----------------------------------------------------------------------
def _cells(config: ExperimentConfig) -> List[Cell]:
    from repro.bench.ablation import _auto_backend, _scale_name

    levels = max(config.resolution_level_settings)
    seed = int(config.synthetic_seeds[0])
    return [
        Cell.make(
            EXPERIMENT_NAME,
            shape=shape.name,
            seed=seed,
            resolution_levels=int(levels),
            scale=_scale_name(config),
            backend=_auto_backend(),
        )
        for shape in SHAPES
    ]


def _run_cell(cell: Cell, config: ExperimentConfig) -> CellPayload:
    from repro.bench.ablation import _apply_configuration, BASELINE_CONFIG
    from repro.service.frontier_cache import FrontierCache
    from repro.service.service import PlanningService

    shape = get_shape(cell["shape"])
    events = synthesize_trace(shape, seed=cell["seed"])
    started = time.perf_counter()
    with ExitStack() as stack:
        _apply_configuration(stack, BASELINE_CONFIG, cell["backend"])
        service = stack.enter_context(
            PlanningService(
                policy="alpha_greedy", workers=0, cache=FrontierCache()
            )
        )
        metrics = replay_manual(
            service,
            events,
            levels=int(cell["resolution_levels"]),
            scale=cell["scale"],
        )
        seconds = time.perf_counter() - started
    return {
        **metrics,
        "seconds": seconds,
        "distinct_specs": len({event.spec for event in events}),
        "bursts": sum(
            1 for event in events if shape.burst_every and event.tick % shape.burst_every == 0
        ),
        "arrival_digest": trace_digest(events),
    }


def _merge(config: ExperimentConfig, outcomes: CellOutcomes) -> "ExperimentResult":
    from repro.bench.experiments import ExperimentResult

    by_cell = {cell: payload for cell, payload in outcomes}
    order = {name: index for index, name in enumerate(shape_names())}
    cells = sorted(by_cell, key=lambda cell: order.get(cell["shape"], 99))
    rows: List[Dict[str, object]] = []
    for cell in cells:
        payload = by_cell[cell]
        shape = get_shape(cell["shape"])
        rows.append(
            {
                "shape": shape.name,
                "description": shape.description,
                "events": shape.events,
                "distinct_specs": int(payload["distinct_specs"]),
                "cache_miss": int(payload["cache_miss"]),
                "cache_hit": int(payload["cache_hit"]),
                "cache_warm": int(payload["cache_warm"]),
                "hit_warm_fraction": round(float(payload["hit_warm_fraction"]), 4),
                "ttff_p50_ms": float(payload["ttff_p50_ms"]),
                "ttff_p95_ms": float(payload["ttff_p95_ms"]),
                "ttff_p99_ms": float(payload["ttff_p99_ms"]),
                "arrival_digest": payload["arrival_digest"],
            }
        )
    return ExperimentResult(
        name=EXPERIMENT_NAME,
        description=(
            "Skewed-trace replay against the planning service (manual mode, "
            "deterministic scheduling): template workloads from "
            f"{', '.join(DEFAULT_TEMPLATES)} arriving under three traffic "
            "shapes.  Reported per shape: cache hit/warm/miss mix and "
            "p50/p95/p99 time-to-first-frontier.  The Zipf repeat-heavy "
            "shape must show a strictly higher hit+warm fraction than the "
            "uniform one-shot baseline (checked by "
            "python -m repro.bench.trace --check)."
        ),
        rows=rows,
    )


def _mix_section(result) -> str:
    lines = [f"== {EXPERIMENT_NAME}: cache mix per trace shape =="]
    header = (
        f"{'shape':>24} {'events':>7} {'miss':>5} {'hit':>5} {'warm':>5} "
        f"{'hit+warm':>9}  description"
    )
    lines.append(header)
    for row in result.rows:
        lines.append(
            f"{row['shape']:>24} {row['events']:>7} {row['cache_miss']:>5} "
            f"{row['cache_hit']:>5} {row['cache_warm']:>5} "
            f"{row['hit_warm_fraction']:>9.3f}  {row['description']}"
        )
    return "\n".join(lines)


SPEC = register(
    ExperimentSpec(
        name=EXPERIMENT_NAME,
        description="Skewed-trace replay: cache mix + TTFF per traffic shape.",
        cells=_cells,
        run_cell=_run_cell,
        merge=_merge,
        section_formatters=(_mix_section,),
    )
)


# ----------------------------------------------------------------------
# The acceptance check
# ----------------------------------------------------------------------
def check_trace(rows: Sequence[Dict[str, object]]) -> List[str]:
    """Validate merged trace rows; returns violations (empty = pass).

    * every shipped shape must be present,
    * the uniform one-shot shape must be all misses (nothing aliased),
    * the re-instantiation shape must produce no exact-repeat hits,
    * the Zipf repeat-heavy shape must have a *strictly* higher hit+warm
      fraction than the uniform baseline, and a non-zero one in absolute
      terms — the cache demonstrably served the repeat traffic.
    """
    violations: List[str] = []
    by_shape = {row["shape"]: row for row in rows}
    missing = [name for name in shape_names() if name not in by_shape]
    if missing:
        return [f"missing trace shapes: {', '.join(missing)}"]
    uniform = by_shape[UNIFORM_SHAPE]
    repeat = by_shape[REPEAT_SHAPE]
    if uniform["cache_hit"] or uniform["cache_warm"]:
        violations.append(
            "uniform one-shot shape had cache hits/warm starts — distinct "
            "instantiations aliased in the cache"
        )
    reinst = by_shape["template_reinstantiate"]
    if reinst["cache_hit"]:
        violations.append(
            "re-instantiated arrivals replayed as exact hits — fresh template "
            "parameters aliased in the cache"
        )
    if float(repeat["hit_warm_fraction"]) <= float(uniform["hit_warm_fraction"]):
        violations.append(
            f"repeat-heavy hit+warm fraction {repeat['hit_warm_fraction']} is "
            f"not strictly above uniform {uniform['hit_warm_fraction']}"
        )
    if int(repeat["cache_hit"]) + int(repeat["cache_warm"]) == 0:
        violations.append("repeat-heavy shape produced zero hits and warm starts")
    return violations


# ----------------------------------------------------------------------
# Standalone entry point
# ----------------------------------------------------------------------
def _main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.bench.config import config_from_environment
    from repro.bench.export import write_text_report
    from repro.bench.reporting import format_rows

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.trace",
        description="Replay skewed template traces against the planning service.",
    )
    parser.add_argument(
        "--output-dir",
        default=None,
        help="write results/trace_replay.txt here (default: print only)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) if the cache-mix acceptance conditions are violated",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="also replay each shape open-loop against the sharded tier with "
        "this many workers (default: 0, manual mode only)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the merged rows as JSON instead of the text table",
    )
    args = parser.parse_args(argv)

    config = config_from_environment()
    outcomes = [(cell, _run_cell(cell, config)) for cell in _cells(config)]
    result = _merge(config, outcomes)
    if args.json:
        print(json.dumps(result.rows, indent=2, sort_keys=True))
    else:
        print(result.description)
        print()
        print(_mix_section(result))
        print()
        print(format_rows(result))
    if args.output_dir is not None:
        path = write_text_report(result, args.output_dir, (_mix_section(result),))
        print(f"\nwrote {path}")

    if args.workers > 0:
        from repro.service.shard import WorkerPoolService

        levels = max(config.resolution_level_settings)
        print(f"\nopen-loop replay on the sharded tier ({args.workers} workers):")
        for shape in SHAPES:
            events = synthesize_trace(shape, seed=int(config.synthetic_seeds[0]))
            with WorkerPoolService(workers=args.workers) as pool:
                metrics = replay_open_loop(pool, events, levels=int(levels), scale=None)
            print(
                f"  {shape.name}: miss={metrics['cache_miss']} "
                f"hit={metrics['cache_hit']} warm={metrics['cache_warm']} "
                f"ttff_p95={metrics['ttff_p95_ms']:.1f}ms"
            )

    if args.check:
        violations = check_trace(result.rows)
        if violations:
            for violation in violations:
                print(f"TRACE GATE FAIL: {violation}", file=sys.stderr)
            return 1
        print("\ntrace gate ok: repeat-heavy traffic beat uniform on hit+warm")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in CI
    raise SystemExit(_main())
