"""Worker-count scaling benchmark for the sharded serving tier.

Regenerates ``results/service_scaling.txt``: the same open-loop arrival
sequence against ``WorkerPoolService`` at 1, 2 and 4 worker processes, cold
(every shard computes its slice of the fingerprint key space) and warm (the
identical requests again, answered by cache replay across the pool).

Hard assertions:

* the warm phase runs **zero** optimizer invocations at every worker count —
  the shared persistent tier makes replay independent of shard placement;
* every warm request is a cache hit;
* cold-phase work is conserved: the pool executes exactly as many invocations
  at 4 workers as at 1 (sharding splits the key space, it never duplicates or
  drops work);
* on a machine with at least 4 CPU cores, 4-worker cold throughput reaches
  at least 2.5x the 1-worker baseline.  Boxes with fewer cores cannot scale
  a CPU-bound phase by adding processes, so there the assertion is skipped
  and the row's ``cpu_count`` column documents why;
* the single scale-out row (one cross-shard warm start) migrates the parked
  session to the new shard and resumes it warm.
"""

from __future__ import annotations

import math
import os

import pytest

from conftest import persist_result
from repro.bench.service_load import run_service_scaling

WORKERS = (1, 2, 4)


@pytest.fixture(scope="module")
def scaling_result(bench_config):
    return run_service_scaling(bench_config, workers_list=WORKERS)


def test_every_worker_count_ran_both_phases(scaling_result):
    cells = {
        (row["workers"], row["phase"])
        for row in scaling_result.rows
        if row["phase"] in ("cold", "warm")
    }
    assert cells == {(count, phase) for count in WORKERS for phase in ("cold", "warm")}


def test_warm_phase_runs_zero_invocations_at_every_worker_count(scaling_result):
    for row in scaling_result.filtered(phase="warm"):
        assert row["invocations_run"] == 0, (
            f"{row['workers']} workers: warm phase re-ran "
            f"{row['invocations_run']} invocations"
        )
        assert row["cache_hit"] == row["jobs"], (
            f"{row['workers']} workers: {row['cache_hit']}/{row['jobs']} "
            "warm requests were cache hits"
        )


def test_cold_phase_work_is_conserved_across_shardings(scaling_result):
    cold = scaling_result.filtered(phase="cold")
    invocations = {row["invocations_run"] for row in cold}
    assert len(invocations) == 1, (
        "sharding changed the total invocation count: "
        f"{sorted((row['workers'], row['invocations_run']) for row in cold)}"
    )
    assert invocations.pop() > 0


def test_latency_percentiles_are_well_formed(scaling_result):
    for row in scaling_result.rows:
        if row["phase"] not in ("cold", "warm"):
            continue
        p50, p95, p99 = row["ttff_p50_ms"], row["ttff_p95_ms"], row["ttff_p99_ms"]
        assert not math.isnan(p50)
        assert p50 <= p95 <= p99


def test_scale_out_row_migrates_and_warm_starts(scaling_result):
    rows = scaling_result.filtered(phase="scale-out")
    assert len(rows) == 1
    row = rows[0]
    assert row["cache_warm"] == 1, "scale-out resubmit was not a warm start"
    assert row["migrations"] == 1
    assert row["migrated_inline_bytes"] > 0


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="cold-phase scaling needs at least as many CPU cores as workers",
)
def test_four_workers_scale_cold_throughput(scaling_result):
    baseline = scaling_result.filtered(workers=1, phase="cold")[0]
    sharded = scaling_result.filtered(workers=4, phase="cold")[0]
    speedup = (
        sharded["throughput_jobs_per_s"] / baseline["throughput_jobs_per_s"]
    )
    assert speedup >= 2.5, (
        f"4-worker cold throughput only {speedup:.2f}x the 1-worker baseline "
        f"on a {os.cpu_count()}-core machine"
    )


def test_persist_service_scaling(scaling_result):
    path = persist_result(scaling_result)
    text = path.read_text()
    assert "service_scaling" in text
    assert "cpu_count" in text
