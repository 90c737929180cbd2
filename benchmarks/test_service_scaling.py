"""Worker-count scaling of the sharded serving tier.

The same 12 generated 4-table requests run cold (empty frontier cache, so
every shard computes its slice of the fingerprint key space) against a
1-worker and a 4-worker :class:`WorkerPoolService`.  On a machine with at
least 4 CPU cores the 4-worker pool must reach at least 2.5x the 1-worker
throughput.  Boxes with fewer cores cannot scale a CPU-bound phase by adding
processes, so there the test is skipped.

Cache replay, warm starts and replay after a shard death are checked in
``tests/service/test_pool.py`` and, for template traffic, in
``tests/service/test_template_traffic.py``; perfbench ``service_zipf``
measures service latency and throughput.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.api.request import OptimizeRequest
from repro.service.protocol import JOB_FINISHED
from repro.service.shard import WorkerPoolService

TOPOLOGIES = ("chain", "star", "cycle", "clique")
SEEDS = (0, 1, 2)
JOBS = 12


def _requests(scale: str):
    """Topologies and seeds in a fixed cycle: 12 distinct 4-table queries."""
    return [
        OptimizeRequest(
            workload=(
                f"gen:{TOPOLOGIES[index % len(TOPOLOGIES)]}:4:"
                f"{SEEDS[(index // len(TOPOLOGIES)) % len(SEEDS)]}"
            ),
            levels=3,
            scale=scale,
        )
        for index in range(JOBS)
    ]


def _cold_throughput(workers: int, requests) -> float:
    """Jobs per second of one cold pass over ``requests``."""
    with WorkerPoolService(workers=workers, max_sessions=8, max_queue=16) as pool:
        start = time.perf_counter()
        tickets = [pool.submit(request) for request in requests]
        for ticket in tickets:
            assert pool.wait(ticket, timeout=300.0)["state"] == JOB_FINISHED
        return len(tickets) / (time.perf_counter() - start)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="cold-phase scaling needs at least as many CPU cores as workers",
)
def test_four_workers_scale_cold_throughput(bench_config):
    requests = _requests(bench_config.name)
    speedup = _cold_throughput(4, requests) / _cold_throughput(1, requests)
    assert speedup >= 2.5, (
        f"4-worker cold throughput only {speedup:.2f}x the 1-worker baseline "
        f"on a {os.cpu_count()}-core machine"
    )
