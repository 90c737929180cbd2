"""The session workloads: ``anytime_mix`` and ``steer_tighten``.

One analyst drains IAMA sessions back to back (a closed loop with no think
time) through the public session API: ``open_session``, then
``PlannerSession.advance`` / ``apply`` until the session finishes.

* ``anytime_mix`` only ever continues: five resolution levels at moderate
  precision, so each session runs five invocations and ends at the target
  precision factor.
* ``steer_tighten`` tightens the execution-time bound after the 2nd, 4th and
  6th frontier (first to the 80th percentile of the frontier, then to 0.7
  times the previous bound) and then lets the session exhaust, for eleven
  invocations in all.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import layers
import measure
import specs
from measure import kind_percentile, metric

from repro.api import Budget, OptimizeRequest
from repro.api import session as api_session
from repro.bench.config import MODERATE_PRECISION
from repro.core.control import ChangeBounds
from repro.costs.metrics import EXECUTION_TIME
from repro.costs.vector import CostVector

LEVELS = 5
SCALE = "smoke"
#: Frontiers after which ``steer_tighten`` tightens the bound.
TIGHTEN_AT = (2, 4, 6)
FIRST_BOUND_QUANTILE = 0.8
TIGHTEN_FACTOR = 0.7
STEERED_INVOCATIONS = 11
#: Counters of ``OptimizerCounters`` that must repeat exactly.
COUNTERS = (
    "plans_generated",
    "pairs_enumerated",
    "candidate_retrievals",
    "plans_inserted",
    "prune_calls",
)


def session_request(spec: str) -> OptimizeRequest:
    return OptimizeRequest(
        workload=spec,
        scale=SCALE,
        levels=LEVELS,
        precision=MODERATE_PRECISION.name,
        budget=Budget(),
    )


@dataclass
class SessionSample:
    kind: str
    spec: str
    wall_s: float
    tta_s: float
    ttff_s: float
    refresh_s: List[float]
    open_s: float
    invocations: int
    digest: str
    counters: Dict[str, int]
    arena_peak_bytes: int
    #: The final frontier and the bounds it was optimized under.
    frontier: tuple
    bounds: CostVector
    #: Host slowness around the session (see ``measure.host_slowness``).
    slowness: float = 1.0


def _tightened(session, frontier, previous: Optional[float]) -> Tuple[float, ChangeBounds]:
    """The next execution-time bound and the action that sets it."""
    index = session.driver.factory.metric_set.index_of(EXECUTION_TIME.name)
    if previous is None:
        costs = sorted(plan.cost[index] for plan in frontier)
        bound = costs[max(0, math.ceil(FIRST_BOUND_QUANTILE * len(costs)) - 1)]
    else:
        bound = previous * TIGHTEN_FACTOR
    values = list(session.bounds.values)
    values[index] = bound
    return bound, ChangeBounds(CostVector(values))


def run_session(kind: str, spec: str, steered: bool) -> SessionSample:
    """Drain one session; every timestamp is taken in the analyst's loop."""
    started = time.perf_counter()
    session = api_session.open_session(session_request(spec))
    opened = time.perf_counter()
    stamps: List[float] = []
    tta: Optional[float] = None
    bound: Optional[float] = None
    update = None
    while not session.finished:
        update = session.advance()
        stamps.append(time.perf_counter())
        if tta is None and not steered and update.invocation.alpha <= MODERATE_PRECISION.target_precision:
            tta = stamps[-1] - started
        action = None
        if steered and len(stamps) in TIGHTEN_AT:
            bound, action = _tightened(session, update.frontier, bound)
        session.apply(action)
    finished = time.perf_counter()
    counters = session.driver.optimizer.state.counters
    return SessionSample(
        kind=kind,
        spec=spec,
        wall_s=finished - started,
        tta_s=(stamps[-1] - started) if steered or tta is None else tta,
        ttff_s=stamps[0] - started,
        refresh_s=[later - earlier for earlier, later in zip(stamps, stamps[1:])],
        open_s=opened - started,
        invocations=len(stamps),
        digest=measure.frontier_digest(update.frontier),
        counters={name: int(getattr(counters, name)) for name in COUNTERS},
        arena_peak_bytes=int(counters.arena_peak_bytes),
        frontier=update.frontier,
        bounds=session.bounds,
    )


class SessionWorkload:
    def __init__(self, name: str, seed: int, reference: dict):
        self.name = name
        self.seed = seed
        self.steered = name == "steer_tighten"
        self.reference = reference.get(name, {})
        self.failures: List[str] = []

    def setup(self) -> None:
        run_session(specs.SESSION_WARMUP, specs.SESSION_WARMUP, self.steered)
        gc.collect()

    def close(self) -> None:
        pass

    # ------------------------------------------------------------------
    def _check(self, sample: SessionSample) -> bool:
        """Compare one session with the recorded frontier digest and counts."""
        expected = self.reference.get(sample.spec)
        problems = []
        if expected is None:
            problems.append("no recorded reference")
        else:
            if sample.digest != expected["digest"]:
                problems.append(f"frontier digest {sample.digest} != {expected['digest']}")
            if sample.counters != expected["counters"]:
                problems.append(f"counters {sample.counters} != {expected['counters']}")
        if self.steered and sample.invocations != STEERED_INVOCATIONS:
            problems.append(f"{sample.invocations} invocations, expected {STEERED_INVOCATIONS}")
        for problem in problems:
            self.failures.append(f"{self.name} {sample.spec}: {problem}")
            print(f"FLAG {self.name} {sample.spec}: {problem}", file=sys.stderr)
        return not problems

    def _sessions(self):
        for round_ in specs.session_rounds(self.seed):
            yield from round_

    def run(self, seconds: float) -> dict:
        samples: List[SessionSample] = []
        attempted = failed = 0
        deadline = time.monotonic() + seconds
        before = measure.host_slowness()
        # Each host_slowness() reading collects garbage first, so the
        # previous session's cycles are collected between sessions, outside
        # the timed window.
        for kind, spec in self._sessions():
            if time.monotonic() >= deadline:
                break
            attempted += 1
            try:
                sample = run_session(kind, spec, self.steered)
            except Exception as exc:  # noqa: BLE001 - a failed session is counted, not fatal
                failed += 1
                self.failures.append(f"{self.name} {spec}: {type(exc).__name__}: {exc}")
                print(f"FLAG {self.name} {spec}: {exc!r}", file=sys.stderr)
                before = measure.host_slowness()
                continue
            after = measure.host_slowness()
            sample.slowness = (before + after) / 2.0
            before = after
            if not self._check(sample):
                failed += 1
            samples.append(sample)
        raw = self._metrics(samples, normalize=False)
        print(f"{self.name} unscaled: " + json.dumps({k: v["value"] for k, v in raw.items()}), file=sys.stderr)
        return {
            "attempted": attempted,
            "failed": failed,
            "metrics": self._metrics(samples, normalize=True),
        }

    def _metrics(self, samples: List[SessionSample], normalize: bool) -> dict:
        """End-to-end metrics; ``normalize`` divides each session's times by its slowness."""
        scale = {id(s): (1.0 / s.slowness if normalize else 1.0) for s in samples}
        by_kind: Dict[str, List[float]] = {}
        for s in samples:
            by_kind.setdefault(s.kind, []).append(s.wall_s * scale[id(s)])
        mean_wall = statistics.fmean(statistics.fmean(walls) for walls in by_kind.values())
        tta = [(s.kind, s.tta_s * scale[id(s)]) for s in samples]
        ttff = [(s.kind, s.ttff_s * 1e3 * scale[id(s)]) for s in samples]
        refresh = [
            (s.kind, value * 1e3 * scale[id(s)]) for s in samples for value in s.refresh_s
        ]
        return {
            "peak_rss_mb": metric(measure.peak_rss_mb(), "MiB"),
            "sessions_per_s": metric(1.0 / mean_wall, "1/s"),
            "tta_s_p50": metric(kind_percentile(tta, 0.5), "s"),
            "ttff_ms_p50": metric(kind_percentile(ttff, 0.5), "ms"),
            "ttff_ms_p90": metric(kind_percentile(ttff, 0.9), "ms"),
            "refresh_ms_p50": metric(kind_percentile(refresh, 0.5), "ms"),
            "refresh_ms_p90": metric(kind_percentile(refresh, 0.9), "ms"),
        }

    # ------------------------------------------------------------------
    def trace(self, seconds: float) -> dict:
        """One round, each session run untraced and traced back to back."""
        clock = layers.LayerClock()
        round_ = next(specs.session_rounds(self.seed))
        untraced_wall = traced_wall = 0.0
        samples: List[SessionSample] = []
        attempted = failed = 0
        for position, (kind, spec) in enumerate(round_):
            for traced in (position % 2 == 1, position % 2 == 0):
                gc.collect()
                attempted += 1
                if traced:
                    layers.install_core_layers(clock)
                    layers.install_api_layers(clock)
                    try:
                        with clock.frame(layers.OTHER, keep=True):
                            sample = run_session(kind, spec, self.steered)
                    finally:
                        clock.uninstall()
                    traced_wall += sample.wall_s
                    samples.append(sample)
                else:
                    sample = run_session(kind, spec, self.steered)
                    untraced_wall += sample.wall_s
                if not self._check(sample):
                    failed += 1
        metrics = core_layer_metrics(clock, samples)
        metrics.update(api_layer_metrics(clock))
        metrics.update(idle_service_metrics())
        metrics["trace.overhead_ratio"] = metric(traced_wall / untraced_wall - 1.0, "ratio")
        print_layer_table(self.name, clock, traced_wall, untraced_wall)
        return {"attempted": attempted, "failed": failed, "metrics": metrics}


def core_layer_metrics(clock: layers.LayerClock, samples: List[SessionSample]) -> dict:
    seconds = clock.self_seconds
    calls = clock.calls
    totals = {name: sum(s.counters[name] for s in samples) for name in COUNTERS}
    session_wall = sum(clock.durations.get(layers.OTHER, ()))
    accounted = sum(value for layer, value in seconds.items() if layer != layers.OTHER)
    return {
        "layers.session_wall_s": metric(session_wall, "s"),
        "layers.other_s": metric(session_wall - accounted, "s"),
        "core.optimize_s": metric(seconds["core.optimize"], "s"),
        "core.prune_s": metric(seconds["core.prune"], "s"),
        "core.prune_plans": metric(totals["prune_calls"], "count"),
        "core.index_s": metric(seconds["core.index"], "s"),
        "core.index_calls": metric(calls["core.index"], "count"),
        "core.retrieve_s": metric(seconds["core.retrieve"], "s"),
        "core.retrieve_calls": metric(calls["core.retrieve"], "count"),
        "core.plans_generated": metric(totals["plans_generated"], "count"),
        "core.pairs_enumerated": metric(totals["pairs_enumerated"], "count"),
        "core.candidate_retrievals": metric(totals["candidate_retrievals"], "count"),
        "core.insert_ratio": metric(
            totals["plans_inserted"] / max(1, totals["prune_calls"]), "ratio"
        ),
        "plans.combine_s": metric(seconds["plans.combine"], "s"),
        "plans.combine_calls": metric(calls["plans.combine"], "count"),
        "plans.arena_peak_mb": metric(
            max((s.arena_peak_bytes for s in samples), default=0) / 2**20, "MiB"
        ),
        "kernel.s": metric(seconds["kernel"], "s"),
        "kernel.calls": metric(calls["kernel"], "count"),
        "kernel.rows": metric(clock.rows["kernel"], "count"),
    }


def api_layer_metrics(clock: layers.LayerClock) -> dict:
    durations = clock.durations
    advance = durations.get("api.advance", [])
    optimize = durations.get("core.optimize", [])
    overhead = [a - o for a, o in zip(advance, optimize)]
    resolve = durations.get("workloads.resolve", [])
    return {
        "api.s": metric(
            sum(clock.self_seconds[layer] for layer in ("api.open", "api.advance", "api.apply")),
            "s",
        ),
        "api.open_ms_p50": metric(measure.percentile(durations.get("api.open", []), 0.5) * 1e3, "ms"),
        "api.advance_overhead_ms_p50": metric(measure.percentile(overhead, 0.5) * 1e3, "ms"),
        "workloads.s": metric(clock.self_seconds["workloads.resolve"], "s"),
        "workloads.resolve_ms_p50": metric(measure.percentile(resolve, 0.5) * 1e3, "ms"),
        "workloads.resolve_calls": metric(len(resolve), "count"),
    }


def idle_service_metrics() -> dict:
    """The service layer does no work in a session workload."""
    return {
        "service.submit_ms_p50": metric(0.0, "ms"),
        "service.hit_ratio": metric(0.0, "ratio"),
        "service.evictions": metric(0, "count"),
        "service.invocations": metric(0, "count"),
        "service.shard_busy_ratio": metric(0.0, "ratio"),
    }


def print_layer_table(name: str, clock: layers.LayerClock, traced_wall: float, untraced_wall: float) -> None:
    """Human-readable self-time split, on standard error."""
    total = sum(clock.durations.get(layers.OTHER, ())) or traced_wall
    print(f"{name}: self time per layer over {total:.3f} s of traced session wall time", file=sys.stderr)
    for layer, seconds in sorted(clock.self_seconds.items(), key=lambda item: -item[1]):
        print(
            f"  {layer:<20} {seconds:9.3f} s {100.0 * seconds / total:6.1f}%  "
            f"{clock.calls[layer]:>9} calls",
            file=sys.stderr,
        )
    print(f"  {'sum':<20} {sum(clock.self_seconds.values()):9.3f} s", file=sys.stderr)
    print(
        f"  traced {traced_wall:.3f} s vs untraced {untraced_wall:.3f} s: "
        f"{100.0 * (traced_wall / untraced_wall - 1.0):+.1f}%",
        file=sys.stderr,
    )
