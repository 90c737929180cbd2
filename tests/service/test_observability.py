"""Observability tier: module clock, /metrics scrapes, trace propagation.

Covers the three service-facing guarantees of the tracing/metrics subsystem:

* ``/healthz`` heartbeat-age (and the shard drain window) run on the
  monotonic module clock ``repro.service.shard._now`` — pinned with a fake
  clock, the same treatment ``repro.api.session._now`` gets;
* ``/metrics`` is valid Prometheus text exposition, never 500s under
  concurrent submit load, and every scrape observes cache gauges that
  satisfy :meth:`FrontierCache.audit`;
* a sharded submit produces *one* trace spanning the parent and worker
  pids, with no orphan spans left after a drained shutdown.
"""

from __future__ import annotations

import http.client
import inspect
import threading
import time

import pytest

from repro import flags
from repro.api import OptimizeRequest
from repro.obs import promcheck
from repro.obs import trace as obs_trace
import repro.service.shard as shard_module
from repro.service import PlanningServer, PlanningService, ServiceClient
from repro.service.protocol import HEALTH_DEGRADED, HEALTH_OK
from repro.service.shard import (
    HEARTBEAT_STALE_SECONDS,
    ShardHandle,
    WorkerPoolService,
)

TINY = dict(levels=3, scale="tiny")


def _get(host: str, port: int, path: str):
    """Raw GET returning (status, content-type, body text)."""
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return (
            response.status,
            response.getheader("Content-Type") or "",
            response.read().decode("utf-8"),
        )
    finally:
        connection.close()


class FakeClock:
    """A controllable monotonic clock."""

    def __init__(self, start: float = 1_000.0):
        self.value = start

    def __call__(self) -> float:
        return self.value

    def advance(self, seconds: float) -> None:
        self.value += seconds


class _FakeProcess:
    pid = 4242


# ----------------------------------------------------------------------
# Satellite: heartbeat age / drain window on the monotonic module clock
# ----------------------------------------------------------------------
class TestModuleClock:
    def test_shard_module_never_reads_the_wall_clock(self):
        source = inspect.getsource(shard_module)
        assert "time.time()" not in source
        # Every elapsed-time computation goes through the module clock so
        # fake-clock tests (and NTP steps) behave.
        for fn in (shard_module.shard_main, ShardHandle.heartbeat_age):
            assert "_now()" in inspect.getsource(fn)

    def test_heartbeat_age_on_fake_clock(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(shard_module, "_now", clock)
        handle = ShardHandle("shard-x", _FakeProcess(), conn=None)
        assert handle.heartbeat_age() == 0.0
        clock.advance(42.5)
        assert handle.heartbeat_age() == 42.5
        handle.last_heartbeat = clock()
        assert handle.heartbeat_age() == 0.0

    def test_healthz_staleness_is_monotonic_elapsed(self, monkeypatch):
        # A long heartbeat interval keeps the live child from refreshing
        # the handle mid-test; staleness must then come purely from the
        # fake clock advancing, not from wall time.
        pool = WorkerPoolService(workers=1, heartbeat_interval=60.0)
        try:
            clock = FakeClock(start=time.monotonic())
            monkeypatch.setattr(shard_module, "_now", clock)
            pool.shards()[0].last_heartbeat = clock()
            assert pool.health()["status"] == HEALTH_OK
            clock.advance(HEARTBEAT_STALE_SECONDS + 1.0)
            health = pool.health()
            assert health["status"] == HEALTH_DEGRADED
            worker = health["workers"][0]
            assert worker["alive"]  # stale, not dead
            assert (
                worker["last_heartbeat_age_seconds"] > HEARTBEAT_STALE_SECONDS
            )
        finally:
            monkeypatch.undo()
            pool.close()


# ----------------------------------------------------------------------
# Tentpole + satellite: /metrics exposition, also under load
# ----------------------------------------------------------------------
class TestMetricsEndpoint:
    def test_scrape_is_valid_prometheus_text(self):
        service = PlanningService(workers=2, max_sessions=4)
        with PlanningServer(service, port=0).start() as server:
            host, port = server.address
            client = ServiceClient(host, port)
            status = client.submit(
                OptimizeRequest(workload="gen:chain:4:1", algorithm="iama", **TINY)
            )
            client.result(status["ticket"], timeout=60)
            code, content_type, text = _get(host, port, "/metrics")
        assert code == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        assert promcheck.check_text(text) == []
        assert "repro_scheduler_submitted_total 1" in text
        assert "repro_invocation_seconds_bucket" in text

    def test_scrapes_under_load_never_500_and_audit_holds(self):
        service = PlanningService(workers=2, max_sessions=4)
        with PlanningServer(service, port=0).start() as server:
            host, port = server.address
            client = ServiceClient(host, port)
            stop = threading.Event()
            failures = []

            def scrape_loop():
                while not stop.is_set():
                    try:
                        code, _, text = _get(host, port, "/metrics")
                        if code != 200:
                            failures.append(("/metrics", code))
                        grammar = promcheck.check_text(text)
                        if grammar:
                            failures.append(("grammar", grammar))
                        # The cache gauges just scraped must be backed by
                        # consistent accounting at this very moment.
                        service.cache.audit()
                        code, _, _ = _get(host, port, "/v1/stats")
                        if code != 200:
                            failures.append(("/v1/stats", code))
                    except Exception as exc:  # noqa: BLE001 - report, don't die
                        failures.append(("exception", repr(exc)))

            scraper = threading.Thread(target=scrape_loop, daemon=True)
            scraper.start()
            try:
                tickets = [
                    client.submit(
                        OptimizeRequest(
                            workload=f"gen:{topology}:4:{seed}",
                            algorithm="iama",
                            **TINY,
                        )
                    )["ticket"]
                    for topology in ("chain", "star")
                    for seed in (0, 1, 2)
                ]
                for ticket in tickets:
                    client.result(ticket, timeout=120)
            finally:
                stop.set()
                scraper.join(timeout=30)
        assert not failures, failures[:5]

    def test_pool_scrape_carries_per_shard_labels(self):
        pool = WorkerPoolService(workers=2)
        with PlanningServer(pool, port=0).start() as server:
            host, port = server.address
            client = ServiceClient(host, port)
            status = client.submit(
                OptimizeRequest(workload="gen:chain:4:1", algorithm="iama", **TINY)
            )
            client.result(status["ticket"], timeout=120)
            code, _, text = _get(host, port, "/metrics")
        assert code == 200
        assert promcheck.check_text(text) == []
        assert 'shard="shard-0"' in text
        assert 'shard="shard-1"' in text
        assert "repro_pool_submits_total 1" in text
        assert "repro_pool_workers 2" in text


# ----------------------------------------------------------------------
# Satellite: one coherent cross-process trace, no orphans after drain
# ----------------------------------------------------------------------
class TestTracePropagation:
    def test_sharded_submit_yields_one_trace_across_pids(self):
        with flags.overrides(tracing=True):
            obs_trace.clear()
            # Workers fork with tracing already on; their spans ship back
            # over heartbeats and the drained farewell.
            pool = WorkerPoolService(workers=2)
            try:
                tickets = [
                    pool.submit(
                        OptimizeRequest(
                            workload=f"gen:{topology}:4:1",
                            algorithm="iama",
                            **TINY,
                        )
                    )
                    for topology in ("chain", "star", "cycle")
                ]
                for ticket in tickets:
                    pool.wait(ticket, timeout=120)
            finally:
                pool.close(drain_seconds=10.0)
            spans = obs_trace.drain()

        roots = [s for s in spans if s["name"] == "pool.submit"]
        assert len(roots) == len(tickets)
        # Every root's trace must reach at least one worker process.
        for root in roots:
            members = [s for s in spans if s["trace_id"] == root["trace_id"]]
            member_pids = {s["pid"] for s in members}
            assert len(member_pids) >= 2, (
                f"trace {root['trace_id']} never crossed a process boundary"
            )
            names = {s["name"] for s in members}
            assert "session.invocation" in names
            assert "scheduler.timeslice" in names
            assert "rpc.recv" in names
        # No orphans after the drained shutdown: every parent id resolves
        # among the collected spans.
        span_ids = {s["span_id"] for s in spans}
        orphans = [
            s for s in spans if s["parent_id"] and s["parent_id"] not in span_ids
        ]
        assert not orphans, [s["name"] for s in orphans][:10]

    def test_tracing_off_records_nothing_through_the_pool(self):
        assert not flags.enabled("tracing")
        obs_trace.clear()
        pool = WorkerPoolService(workers=1)
        try:
            ticket = pool.submit(
                OptimizeRequest(workload="gen:chain:4:1", algorithm="iama", **TINY)
            )
            pool.wait(ticket, timeout=120)
        finally:
            pool.close(drain_seconds=5.0)
        assert obs_trace.snapshot() == []
