"""Tests for the sharded worker-pool serving tier.

The centrepiece mirrors ``test_service.py``: the differential guarantee must
survive sharding.  The frontier a request receives from the worker pool — at
any worker count, cold, replayed across processes, warm-started, or rerouted
after a shard death — is bit-identical to running the same
``OptimizeRequest`` through serial ``open_session``.
"""

from __future__ import annotations

import time

import pytest

import repro.service.shard as shard_module
from repro.api import Budget, OptimizeRequest, open_session
from repro.obs import trace as obs_trace
from repro.service import (
    CACHE_HIT,
    CACHE_WARM,
    AdmissionError,
    PlanningServer,
    ServiceClient,
    ServiceError,
    UnknownTicketError,
    WorkerPoolService,
)

# Spawning real worker processes makes this the heaviest module in tests/;
# the tier taxonomy (see the root conftest) files it under ``slow``.
pytestmark = pytest.mark.slow

TINY = dict(levels=3, scale="tiny")

TOPOLOGIES = ("chain", "star", "cycle", "clique")
SEEDS = (0, 1)


def _requests():
    return [
        OptimizeRequest(workload=f"gen:{topology}:4:{seed}", **TINY)
        for topology in TOPOLOGIES
        for seed in SEEDS
    ]


def _frontier_costs(result):
    return [tuple(summary.cost) for summary in result.frontier]


@pytest.fixture(scope="module")
def serial_runs():
    """Ground truth: every request run serially through open_session."""
    runs = {}
    for request in _requests():
        result = open_session(request).run()
        runs[request.workload] = {
            "frontier": _frontier_costs(result),
            "plans_generated": result.plans_generated,
            "invocations": len(result.invocations),
        }
    return runs


# ----------------------------------------------------------------------
# The differential guarantee, sharded
# ----------------------------------------------------------------------
class TestDifferentialGuarantee:
    @pytest.mark.parametrize("max_sessions", (1, 4))
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_pool_frontiers_are_bit_identical_to_serial(
        self, workers, max_sessions, serial_runs
    ):
        with WorkerPoolService(workers=workers, max_sessions=max_sessions) as pool:
            tickets = {
                request.workload: pool.submit(request)
                for request in _requests()
            }
            for workload, ticket in tickets.items():
                result = pool.result(ticket, timeout=120.0)
                serial = serial_runs[workload]
                assert _frontier_costs(result) == serial["frontier"], (
                    f"workers {workers}, max_sessions {max_sessions}: frontier of "
                    f"{workload} diverged from serial execution"
                )
                assert result.plans_generated == serial["plans_generated"]
                assert len(result.invocations) == serial["invocations"]

    def test_cross_process_replay_is_bit_identical(self, serial_runs):
        request = _requests()[0]
        with WorkerPoolService(workers=2) as pool:
            first = pool.submit(request)
            pool.result(first, timeout=60.0)
            second = pool.submit(request)
            result = pool.result(second, timeout=60.0)
            assert pool.poll(second)["cache_status"] == CACHE_HIT
            assert pool.shard_of(second) == pool.shard_of(first)
            assert (
                _frontier_costs(result)
                == serial_runs[request.workload]["frontier"]
            )
            # Replay ran zero further invocations anywhere in the pool.
            stats = pool.stats()
            assert (
                stats["scheduler"]["invocations_run"]
                == serial_runs[request.workload]["invocations"]
            )

    def test_warm_start_lands_on_the_parked_shard(self, serial_runs):
        request = _requests()[1]
        capped = request.with_overrides(budget=Budget(max_invocations=1))
        with WorkerPoolService(workers=4) as pool:
            first = pool.submit(capped)
            pool.result(first, timeout=60.0)
            ticket = pool.submit(request)
            result = pool.result(ticket, timeout=60.0)
            assert pool.poll(ticket)["cache_status"] == CACHE_WARM
            assert pool.shard_of(ticket) == pool.shard_of(first)
            assert (
                _frontier_costs(result)
                == serial_runs[request.workload]["frontier"]
            )
            # Only the missing invocations ran: 1 (capped) + 2 (resumed).
            assert pool.stats()["scheduler"]["invocations_run"] == request.levels

    def test_rebalance_after_worker_death_stays_bit_identical(self, serial_runs):
        """A killed shard's keys reroute; results never change."""
        with WorkerPoolService(workers=4, max_sessions=4) as pool:
            requests = _requests()
            for request in requests:
                pool.result(pool.submit(request), timeout=120.0)
            victim = pool.shard_of(pool.tickets()[0])
            pool.kill_shard(victim)
            assert len(pool.ring) == 3
            rerouted = 0
            for request in requests:
                ticket = pool.submit(request)
                result = pool.result(ticket, timeout=120.0)
                assert pool.shard_of(ticket) != victim
                assert (
                    _frontier_costs(result)
                    == serial_runs[request.workload]["frontier"]
                ), f"{request.workload} diverged after shard rebalance"
                if pool.poll(ticket)["cache_status"] == CACHE_HIT:
                    rerouted += 1
            # The dead shard's completed traces were replayable from the
            # shared persistent tier by the surviving shards.
            assert rerouted == len(requests)

    def test_restarted_worker_rejoins_and_replays_from_disk(self, serial_runs):
        request = _requests()[2]
        with WorkerPoolService(workers=2) as pool:
            first = pool.submit(request)
            pool.result(first, timeout=60.0)
            owner = pool.shard_of(first)
            pool.kill_shard(owner)
            pool.restart_shard(owner)
            assert len(pool.ring) == 2
            # Same fingerprint -> same ring position -> the restarted shard,
            # whose live tier is empty but whose persistent tier is shared.
            ticket = pool.submit(request)
            result = pool.result(ticket, timeout=60.0)
            assert pool.shard_of(ticket) == owner
            assert pool.poll(ticket)["cache_status"] == CACHE_HIT
            assert (
                _frontier_costs(result)
                == serial_runs[request.workload]["frontier"]
            )


# ----------------------------------------------------------------------
# Fixed placement
# ----------------------------------------------------------------------
class TestPlacement:
    def test_every_request_runs_on_the_shard_the_ring_assigns(self):
        """The ring alone places a request, so a resubmission never moves."""
        from repro.api.request import resolve_request
        from repro.service.frontier_cache import request_fingerprint

        with WorkerPoolService(workers=4, max_sessions=4) as pool:
            placed = {}
            for _ in range(2):  # cold, then replayed
                for request in _requests():
                    ticket = pool.submit(request)
                    pool.result(ticket, timeout=60.0)
                    key = request_fingerprint(
                        resolve_request(request), request.algorithm
                    )
                    assert pool.shard_of(ticket) == pool.ring.assign(key)
                    shard = placed.setdefault(request.workload, pool.shard_of(ticket))
                    assert pool.shard_of(ticket) == shard


# ----------------------------------------------------------------------
# Verbs and lifecycle
# ----------------------------------------------------------------------
class TestVerbs:
    def test_stream_and_steer_through_the_pool(self):
        request = OptimizeRequest(workload="gen:star:4:0", **TINY)
        with WorkerPoolService(workers=1) as pool:
            ticket = pool.submit(request)
            updates = list(pool.stream(ticket, timeout=60.0))
            assert len(updates) == request.levels
            alphas = [u["invocation"]["alpha"] for u in updates]
            assert alphas == sorted(alphas, reverse=True)
            # Steering a terminal job is a conflict, like the in-process path.
            with pytest.raises(RuntimeError):
                pool.steer(
                    ticket,
                    {
                        "schema_version": 1,
                        "kind": "steer_request",
                        "action": "select",
                        "index": 0,
                    },
                )

    def test_select_steering_crosses_the_pipe(self):
        request = OptimizeRequest(
            workload="gen:clique:5:0", levels=5, scale="tiny"
        )
        with WorkerPoolService(workers=1) as pool:
            ticket = pool.submit(request)
            # Steer as soon as the first frontier exists.
            next(iter(pool.stream(ticket, timeout=60.0)))
            pool.steer(
                ticket,
                {
                    "schema_version": 1,
                    "kind": "steer_request",
                    "action": "select",
                    "index": 0,
                },
            )
            result = pool.result(ticket, timeout=60.0)
            assert result.finish_reason == "selected"
            assert result.selected_plan is not None

    def test_cancel_reports_the_partial_frontier(self):
        request = OptimizeRequest(
            workload="gen:clique:6:0", levels=6, scale="tiny"
        )
        with WorkerPoolService(workers=1) as pool:
            ticket = pool.submit(request)
            next(iter(pool.stream(ticket, timeout=60.0)))
            status = pool.cancel(ticket)
            assert status["state"] in ("cancelled", "finished")

    def test_unknown_ticket_and_bad_algorithm(self):
        with WorkerPoolService(workers=1) as pool:
            with pytest.raises(UnknownTicketError):
                pool.poll("job-999999")
            with pytest.raises(KeyError):
                pool.submit(
                    OptimizeRequest(workload="gen:chain:3:0", algorithm="nope")
                )

    def test_submit_after_close_and_during_drain(self):
        pool = WorkerPoolService(workers=1)
        pool.close(drain_seconds=1.0)
        from repro.service import ServiceError

        with pytest.raises(ServiceError):
            pool.submit(OptimizeRequest(workload="gen:chain:3:0", **TINY))

    def test_drain_waits_for_in_flight_jobs(self):
        request = OptimizeRequest(workload="gen:clique:5:1", levels=4, scale="tiny")
        with WorkerPoolService(workers=2) as pool:
            tickets = [pool.submit(request.with_overrides(
                workload=f"gen:clique:5:{seed}") ) for seed in range(3)]
            assert pool.drain(timeout=60.0)
            for ticket in tickets:
                assert pool.poll(ticket)["state"] == "finished"

    def test_graceful_close_drains_and_flushes(self, tmp_path):
        pool = WorkerPoolService(workers=2, cache_dir=tmp_path)
        request = OptimizeRequest(workload="gen:star:5:3", levels=4, scale="tiny")
        ticket = pool.submit(request)
        pool.close(drain_seconds=30.0)
        # The job finished during the drain window and its trace reached the
        # shared persistent tier before the shards exited.
        persisted = list(tmp_path.rglob("*.json"))
        assert persisted, "drain did not flush the persistent cache tier"


# ----------------------------------------------------------------------
# Fault injection: messages the parent cannot apply
# ----------------------------------------------------------------------
class TestMalformedMessages:
    @pytest.mark.parametrize(
        "message",
        [
            {"op": "update"},  # no payload, alpha or plans_after
            {"op": "status", "replayed": 0},  # no status
            {
                "op": "status",
                "replayed": 0,
                "status": {"state": "exploded", "cache_status": "miss"},
            },
            {"op": "frobnicate"},
        ],
        ids=("update", "status", "state", "unknown_op"),
    )
    def test_the_named_job_fails_and_the_reader_lives_on(
        self, message, monkeypatch
    ):
        """The shard sends ``message`` for the first job before its updates."""
        first = OptimizeRequest(workload="gen:star:4:0", **TINY)
        later = OptimizeRequest(workload="gen:chain:4:0", **TINY)
        push_progress = shard_module._push_progress
        named = set()

        def push_malformed_first(conn, service, open_jobs):
            for ticket, (job, _) in open_jobs.items():
                if job.request == first and ticket not in named:
                    named.add(ticket)
                    conn.send({**message, "ticket": ticket})
            push_progress(conn, service, open_jobs)

        # The shards fork after the patch, so they inherit it.
        monkeypatch.setattr(shard_module, "_push_progress", push_malformed_first)
        with WorkerPoolService(workers=1) as pool:
            ticket = pool.submit(first)
            status = pool.wait(ticket, timeout=30.0)
            assert status["state"] == "failed"
            assert repr(message["op"]) in status["error"]
            assert all(shard.reader.is_alive() for shard in pool.shards())
            result = pool.result(pool.submit(later), timeout=60.0)
        assert _frontier_costs(result) == _frontier_costs(open_session(later).run())


    def test_a_reply_without_req_id_fails_the_waiting_rpc_at_once(
        self, monkeypatch
    ):
        handle_request = shard_module._handle_request

        def answer_stats_anonymously(conn, service, open_jobs, message):
            if message.get("op") == "stats":
                conn.send({"op": "reply", "stats": {}})
            else:
                handle_request(conn, service, open_jobs, message)

        # The shards fork after the patch, so they inherit it.
        monkeypatch.setattr(shard_module, "_handle_request", answer_stats_anonymously)
        with WorkerPoolService(workers=1) as pool:
            (handle,) = pool.shards()
            started = time.monotonic()
            with pytest.raises(ServiceError, match=handle.shard_id):
                pool._rpc(handle, {"op": "stats"}, timeout=3.0)
            assert time.monotonic() - started < 1.0
            assert not handle.waiting


# ----------------------------------------------------------------------
# Health and the wire layer
# ----------------------------------------------------------------------
class TestHealth:
    def test_health_lists_every_worker(self):
        with WorkerPoolService(workers=3) as pool:
            time.sleep(0.4)  # let first heartbeats land
            health = pool.health()
            assert health["kind"] == "service_health"
            assert health["status"] == "ok"
            assert len(health["workers"]) == 3
            for worker in health["workers"]:
                assert worker["alive"]
                assert worker["pid"] > 0
                assert worker["last_heartbeat_age_seconds"] < 5.0

    def test_dead_shard_degrades_health_and_healthz_returns_503(self):
        with WorkerPoolService(workers=2) as pool:
            with PlanningServer(pool, port=0) as server:
                server.start()
                host, port = server.address
                client = ServiceClient(host, port)
                assert client.health()["status"] == "ok"
                pool.kill_shard("shard-0")
                health = client.health()  # 503, payload still returned
                assert health["status"] == "degraded"
                dead = {
                    w["shard_id"]: w["alive"] for w in health["workers"]
                }
                assert dead["shard-0"] is False and dead["shard-1"] is True
                # Recovery: restart the shard, health returns to ok.
                pool.restart_shard("shard-0")
                time.sleep(0.4)
                assert client.health()["status"] == "ok"

    def test_stats_carry_per_shard_gauges(self):
        with WorkerPoolService(workers=2) as pool:
            request = OptimizeRequest(workload="gen:chain:4:0", **TINY)
            pool.result(pool.submit(request), timeout=60.0)
            stats = pool.stats()
            assert stats["kind"] == "service_stats"
            assert len(stats["shards"]) == 2
            shard_ids = {shard["shard_id"] for shard in stats["shards"]}
            assert shard_ids == {"shard-0", "shard-1"}
            for shard in stats["shards"]:
                assert "live_sessions" in shard["cache"]
                assert "invocations_run" in shard["scheduler"]
            total = sum(
                shard["scheduler"]["invocations_run"]
                for shard in stats["shards"]
            )
            assert total == stats["scheduler"]["invocations_run"] == request.levels

    def test_http_round_trip_against_the_pool(self):
        request = OptimizeRequest(workload="gen:cycle:4:1", **TINY)
        with WorkerPoolService(workers=2) as pool:
            with PlanningServer(pool, port=0) as server:
                server.start()
                host, port = server.address
                client = ServiceClient(host, port)
                status = client.submit(request)
                result = client.result(status["ticket"], timeout=60.0)
                serial = open_session(request).run()
                assert _frontier_costs(result) == _frontier_costs(serial)
                repeat = client.submit(request)
                client.result(repeat["ticket"], timeout=60.0)
                assert client.poll(repeat["ticket"])["cache_status"] == CACHE_HIT


# ----------------------------------------------------------------------
# The tracer across fork
# ----------------------------------------------------------------------
def _wait_until(condition, timeout):
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)
    return True


class TestForkedTracer:
    """A forked shard starts with a fresh tracer lock and an empty ring."""

    def test_a_shard_forked_under_the_tracer_lock_heartbeats(self):
        with WorkerPoolService(workers=1, heartbeat_interval=0.05) as pool:
            pool.kill_shard("shard-0")
            with obs_trace.tracer()._lock:
                handle = pool.restart_shard("shard-0")
            beat = _wait_until(lambda: handle.stats, timeout=1.0)
            if not beat:
                handle.process.kill()  # spare close() its 10 s join
            assert beat, "the new shard never sent its first heartbeat"

    def test_shards_do_not_echo_the_parent_spans(self):
        parent_spans = [
            {"name": f"parent.{index}", "start": 0.0, "end": 0.0}
            for index in range(100)
        ]
        obs_trace.clear()
        obs_trace.ingest(parent_spans)
        try:
            with WorkerPoolService(workers=2, heartbeat_interval=0.05) as pool:
                for handle in pool.shards():
                    assert _wait_until(lambda: handle.stats, timeout=5.0)
                    first = handle.last_heartbeat
                    # The reader handles messages in order: once the second
                    # heartbeat lands, the first one's spans were ingested.
                    assert _wait_until(
                        lambda: handle.last_heartbeat != first, timeout=5.0
                    )
                assert len(obs_trace.tracer()) == len(parent_spans)
        finally:
            obs_trace.clear()
