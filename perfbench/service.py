"""The service workload: ``service_zipf``.

One closed-loop client (no think time) submits to a ``WorkerPoolService``
with as many shards as the machine has cores, at most two, and waits for
each job before sending the next; see :func:`specs.service_arrivals` for the
seeded (template, seed) pairs.  A second concurrent client made hit latency
depend on whether the other client's miss held the CPU at that moment, and
its run-to-run spread was several times any bound a later change could be
held to.
"""

from __future__ import annotations

import bisect
import json
import os
import re
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import layers
import measure
import specs
from measure import kind_percentile, metric, percentile

from repro.api import Budget, OptimizeRequest
from repro.api.schema import OptimizationResult
from repro.service import WorkerPoolService

SCALE = "smoke"
WORKERS = max(1, min(2, os.cpu_count() or 1))
#: Peak RSS is read once this many jobs have completed, so that it covers the
#: same work in every run (parked sessions accumulate as a run goes on).
RSS_AFTER_JOBS = 150
JOB_TIMEOUT_S = 60.0
#: The client measures the host slowness at least this often, between jobs.
CALIBRATE_EVERY_S = 0.25
_INVOCATION_SUM = re.compile(r"^repro_invocation_seconds_sum(?:\{[^}]*\})? (\S+)$", re.M)


def service_request(spec: str, kind: str) -> OptimizeRequest:
    budget = Budget(max_invocations=1) if kind == specs.PROBE else Budget()
    return OptimizeRequest(workload=spec, scale=SCALE, budget=budget)


@dataclass
class JobSample:
    spec: str
    latency_s: float
    ttff_s: float
    refresh_s: List[float]
    cache_status: str
    started_at: float
    finished_at: float
    #: Host slowness around the job (see ``measure.host_slowness``).
    slowness: float = 1.0


def invocation_seconds(pool: WorkerPoolService) -> float:
    """Optimizer time summed over every shard, from the Prometheus text."""
    return sum(float(value) for value in _INVOCATION_SUM.findall(pool.render_metrics()))


class ServiceWorkload:
    name = "service_zipf"

    def __init__(self, name: str, seed: int, reference: dict):
        self.seed = seed
        self.reference = reference.get(self.name, {})
        self.failures: List[str] = []
        self.pool: Optional[WorkerPoolService] = None
        self.rss_mb: Optional[float] = None

    def setup(self) -> None:
        self.pool = WorkerPoolService(workers=WORKERS)
        warmup = self.pool.submit(service_request(specs.SERVICE_WARMUP, specs.FULL))
        self.pool.wait(warmup, timeout=JOB_TIMEOUT_S)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    # ------------------------------------------------------------------
    def _flag(self, spec: str, problem: str) -> None:
        self.failures.append(f"{self.name} {spec}: {problem}")
        print(f"FLAG {self.name} {spec}: {problem}", file=sys.stderr)

    def _one_job(self, spec: str, kind: str, expected_status: str) -> Optional[JobSample]:
        pool = self.pool
        started = time.monotonic()
        ticket = pool.submit(service_request(spec, kind))
        status = pool.wait(ticket, timeout=JOB_TIMEOUT_S)
        finished = time.monotonic()
        job = pool.job(ticket)
        if status["state"] != "finished":
            self._flag(spec, f"job {status['state']}: {status.get('error')}")
            return None
        frontier = OptimizationResult.from_dict(status["result"]).frontier
        digest = measure.frontier_digest(frontier)
        expected = self.reference.get(f"{spec}|{kind}")
        problems = []
        if digest != expected:
            problems.append(f"{kind} frontier digest {digest} != serial {expected}")
        if status["cache_status"] != expected_status:
            problems.append(f"cache {status['cache_status']}, expected {expected_status}")
        for problem in problems:
            self._flag(spec, problem)
        if problems:
            return None
        times = job.update_times
        return JobSample(
            spec=spec,
            latency_s=finished - started,
            ttff_s=job.first_update_at - started,
            refresh_s=[
                times[index] - times[index - 1]
                for index in range(max(1, job.replayed), len(times))
            ],
            cache_status=status["cache_status"],
            started_at=started,
            finished_at=finished,
        )

    def _drive(self, seconds: float, limit: Optional[int] = None) -> dict:
        """The closed-loop client: submit, wait, check, repeat.

        Stops after ``limit`` arrivals if given, else after ``seconds``.
        """
        started = time.monotonic()
        deadline = started + seconds
        arrivals = []
        samples: List[JobSample] = []
        readings = []
        failed = 0
        calibrated = -CALIBRATE_EVERY_S
        for spec, kind in specs.service_arrivals(self.seed):
            if limit is not None:
                if len(arrivals) >= limit:
                    break
            elif time.monotonic() >= deadline:
                break
            if time.monotonic() - calibrated >= CALIBRATE_EVERY_S:
                calibrated = time.monotonic()
                readings.append((calibrated, measure.host_slowness(passes=1)))
            arrivals.append((spec, kind))
            expected_status = specs.expected_cache_status(arrivals)[-1]
            try:
                sample = self._one_job(spec, kind, expected_status)
            except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
                self._flag(spec, f"{type(exc).__name__}: {exc}")
                sample = None
            if sample is None:
                failed += 1
            else:
                samples.append(sample)
            if len(arrivals) == RSS_AFTER_JOBS:
                self.rss_mb = self._peak_rss_mb()
        readings.append((time.monotonic(), measure.host_slowness(passes=1)))
        stamps = [stamp for stamp, _ in readings]
        for sample in samples:
            before = readings[max(0, bisect.bisect_right(stamps, sample.started_at) - 1)][1]
            after = readings[min(len(readings) - 1, bisect.bisect_left(stamps, sample.finished_at))][1]
            sample.slowness = (before + after) / 2.0
        ended = max((sample.finished_at for sample in samples), default=time.monotonic())
        return {
            "wall_s": ended - started,
            "samples": samples,
            "attempted": len(arrivals),
            "failed": failed,
        }

    def _peak_rss_mb(self) -> float:
        """The front process's peak RSS or the shards' mean peak, whichever is larger.

        The mean, not the largest shard: which shard the ring hands the
        largest parked sessions to changes with the seed.
        """
        shards = [measure.peak_rss_mb(handle.pid) for handle in self.pool.shards() if handle.alive]
        return max(measure.peak_rss_mb(), statistics.fmean(shards))

    def run(self, seconds: float) -> dict:
        run = self._drive(seconds)
        samples: List[JobSample] = run["samples"]
        raw = self._metrics(run, normalize=False)
        print(f"{self.name} unscaled: " + json.dumps({k: v["value"] for k, v in raw.items()}), file=sys.stderr)
        mix = {status: 0 for status in ("miss", "warm", "hit")}
        for sample in samples:
            mix[sample.cache_status] += 1
        print(f"{self.name}: cache mix {mix} over {len(samples)} jobs", file=sys.stderr)
        return {
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": self._metrics(run, normalize=True),
        }

    def _metrics(self, run: dict, normalize: bool) -> dict:
        """End-to-end metrics; ``normalize`` divides each job's times by its slowness.

        Percentiles are taken per template and averaged over templates, as
        the session workloads do per query kind: one template's probes cost
        up to 10x another's, so pooled percentiles jump with the seed.
        """
        samples: List[JobSample] = run["samples"]
        scale = {id(s): (1.0 / s.slowness if normalize else 1.0) for s in samples}
        template = {id(s): s.spec.split(":")[1] for s in samples}
        latency = [(template[id(s)], s.latency_s * scale[id(s)]) for s in samples]
        ttff = [(template[id(s)], s.ttff_s * 1e3 * scale[id(s)]) for s in samples]
        refresh = [
            (template[id(s)], v * 1e3 * scale[id(s)]) for s in samples for v in s.refresh_s
        ]
        # The client waits for each job, so its throughput is one over the
        # mean job latency; taken per template, like the percentiles.
        by_template: Dict[str, List[float]] = {}
        for name, value in latency:
            by_template.setdefault(name, []).append(value)
        mean_latency = statistics.fmean(statistics.fmean(v) for v in by_template.values())
        return {
            "peak_rss_mb": metric(self.rss_mb or self._peak_rss_mb(), "MiB"),
            "sessions_per_s": metric(1.0 / mean_latency, "1/s"),
            "tta_s_p50": metric(kind_percentile(latency, 0.5), "s"),
            "ttff_ms_p50": metric(kind_percentile(ttff, 0.5), "ms"),
            "ttff_ms_p90": metric(kind_percentile(ttff, 0.9), "ms"),
            "refresh_ms_p50": metric(kind_percentile(refresh, 0.5), "ms"),
            "refresh_ms_p90": metric(kind_percentile(refresh, 0.9), "ms"),
        }

    # ------------------------------------------------------------------
    def trace(self, seconds: float) -> dict:
        """An untraced pool for half the time, then the same arrivals traced."""
        busy_before = invocation_seconds(self.pool)
        untraced = self._drive(seconds / 2.0)
        busy_untraced = invocation_seconds(self.pool) - busy_before
        self.close()
        clock = layers.LayerClock()
        dump_dir = Path(tempfile.mkdtemp(prefix="perfbench-layers-"))
        try:
            layers.install_core_layers(clock)
            layers.install_service_layers(clock, dump_dir)
            self.pool = WorkerPoolService(workers=WORKERS)
            busy_before = invocation_seconds(self.pool)
            traced = self._drive(seconds, limit=untraced["attempted"])
            stats = self.pool.stats()
            busy = invocation_seconds(self.pool) - busy_before
            self.close()
            shard_clock = layers.LayerClock()
            for snapshot in layers.read_shard_dumps(dump_dir):
                shard_clock.merge(snapshot)
        finally:
            clock.uninstall()
            self.close()
            shutil.rmtree(dump_dir, ignore_errors=True)
        samples: List[JobSample] = traced["samples"]
        cache = stats["cache"]
        lookups = cache["hits"] + cache["warm_starts"] + cache["misses"]
        seconds_ = shard_clock.self_seconds
        calls = shard_clock.calls
        metrics = {
            "layers.session_wall_s": metric(traced["wall_s"], "s"),
            "layers.other_s": metric(0.0, "s"),
            "core.optimize_s": metric(seconds_["core.optimize"], "s"),
            "core.prune_s": metric(seconds_["core.prune"], "s"),
            "core.prune_plans": metric(0, "count"),
            "core.index_s": metric(seconds_["core.index"], "s"),
            "core.index_calls": metric(calls["core.index"], "count"),
            "core.retrieve_s": metric(seconds_["core.retrieve"], "s"),
            "core.retrieve_calls": metric(calls["core.retrieve"], "count"),
            "core.plans_generated": metric(0, "count"),
            "core.pairs_enumerated": metric(0, "count"),
            "core.candidate_retrievals": metric(0, "count"),
            "core.insert_ratio": metric(0.0, "ratio"),
            "plans.combine_s": metric(seconds_["plans.combine"], "s"),
            "plans.combine_calls": metric(calls["plans.combine"], "count"),
            "plans.arena_peak_mb": metric(0.0, "MiB"),
            "kernel.s": metric(seconds_["kernel"], "s"),
            "kernel.calls": metric(calls["kernel"], "count"),
            "kernel.rows": metric(shard_clock.rows["kernel"], "count"),
            "api.s": metric(0.0, "s"),
            "api.open_ms_p50": metric(0.0, "ms"),
            "api.advance_overhead_ms_p50": metric(0.0, "ms"),
            "workloads.s": metric(clock.self_seconds["workloads.resolve"], "s"),
            "workloads.resolve_ms_p50": metric(
                percentile(clock.durations.get("workloads.resolve", []), 0.5) * 1e3, "ms"
            ),
            "workloads.resolve_calls": metric(clock.calls["workloads.resolve"], "count"),
            "service.submit_ms_p50": metric(
                percentile(clock.durations.get("service.submit", []), 0.5) * 1e3, "ms"
            ),
            "service.hit_ratio": metric(cache["hits"] / max(1, lookups), "ratio"),
            "service.evictions": metric(cache["evictions"], "count"),
            "service.invocations": metric(stats["scheduler"]["invocations_run"], "count"),
            "service.shard_busy_ratio": metric(busy / (traced["wall_s"] * WORKERS), "ratio"),
            "trace.overhead_ratio": metric(traced["wall_s"] / untraced["wall_s"] - 1.0, "ratio"),
        }
        print(
            f"{self.name}: {len(samples)} traced jobs in {traced['wall_s']:.3f} s vs "
            f"{untraced['wall_s']:.3f} s untraced "
            f"({100.0 * (traced['wall_s'] / untraced['wall_s'] - 1.0):+.1f}%); "
            f"untraced shard busy ratio {busy_untraced / (untraced['wall_s'] * WORKERS):.3f}",
            file=sys.stderr,
        )
        for layer, value in sorted(seconds_.items(), key=lambda item: -item[1]):
            print(f"  shard {layer:<20} {value:9.3f} s {calls[layer]:>9} calls", file=sys.stderr)
        for layer, value in sorted(clock.self_seconds.items(), key=lambda item: -item[1]):
            print(f"  front {layer:<20} {value:9.3f} s {clock.calls[layer]:>9} calls", file=sys.stderr)
        return {
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "metrics": metrics,
        }
