"""Template traffic through the serving tiers.

perfbench ``service_zipf`` times redbench-style traffic: ``template:`` specs
probed, warm-started and repeated against the worker pool.  These tests hold,
on every shipped template, what that traffic relies on:

* a template request's frontier from the service is bit-identical to the
  serial ``open_session`` run, whether computed cold, replayed from the
  frontier cache or warm-started from a parked session;
* an exact repeat is a cache hit that runs zero optimizer invocations;
* re-instantiating a template with another seed is a miss: it never aliases
  the cached frontier of the first instantiation;
* a cold phase of distinct requests computes every one, with several sessions
  live at once, and the identical warm phase is answered by replay alone —
  also across worker processes.
"""

from __future__ import annotations

import pytest

from repro.api import Budget, OptimizeRequest, open_session
from repro.service import (
    CACHE_HIT,
    CACHE_MISS,
    CACHE_WARM,
    PlanningService,
    WorkerPoolService,
)
from repro.service.protocol import JOB_FINISHED
from repro.workloads.templates import template_names

TINY = dict(levels=3, scale="tiny")

TEMPLATES = template_names()
SEEDS = (1, 2)
#: Admission caps of the cold/warm phases.  Each cap is a different
#: round-robin interleaving of the same 12 requests; all keep a backlog.
MAX_SESSIONS = (2, 4, 8)


def _request(name, seed, **overrides):
    return OptimizeRequest(workload=f"template:{name}:{seed}", **TINY, **overrides)


def _phase_requests():
    """Every template at two seeds: 12 distinct requests."""
    return [_request(name, seed) for seed in SEEDS for name in TEMPLATES]


def _frontier_costs(result):
    return [tuple(summary.cost) for summary in result.frontier]


@pytest.fixture(scope="module")
def serial_runs():
    """Ground truth: every phase request run serially through open_session."""
    runs = {}
    for request in _phase_requests():
        result = open_session(request).run()
        runs[request.workload] = {
            "frontier": _frontier_costs(result),
            "invocations": len(result.invocations),
        }
    return runs


def _run(service, request):
    """Submit one request to a manual-mode service and step it to the end."""
    ticket = service.submit(request)
    service.run_until_idle()
    return ticket, service.result(ticket, timeout=0.1)


# ----------------------------------------------------------------------
# One template at a time
# ----------------------------------------------------------------------
class TestTemplateRequests:
    @pytest.mark.parametrize("name", TEMPLATES)
    def test_cold_frontier_is_bit_identical_to_serial(self, name, serial_runs):
        request = _request(name, 1)
        with PlanningService(workers=2) as service:
            ticket = service.submit(request)
            result = service.result(ticket, timeout=60.0)
            assert service.poll(ticket)["cache_status"] == CACHE_MISS
        serial = serial_runs[request.workload]
        assert _frontier_costs(result) == serial["frontier"]
        assert len(result.invocations) == serial["invocations"]

    @pytest.mark.parametrize("name", TEMPLATES)
    def test_exact_repeat_is_a_hit_that_runs_nothing(self, name, serial_runs):
        request = _request(name, 1)
        with PlanningService(workers=0) as service:
            _run(service, request)
            before = service.stats()["scheduler"]
            ticket = service.submit(request)
            # A hit is answered at submit: the scheduler never sees it.
            assert service.poll(ticket)["state"] == JOB_FINISHED
            assert service.poll(ticket)["cache_status"] == CACHE_HIT
            result = service.result(ticket, timeout=0.1)
            after = service.stats()["scheduler"]
        assert after["invocations_run"] == before["invocations_run"]
        assert after["submitted"] == before["submitted"]
        assert _frontier_costs(result) == serial_runs[request.workload]["frontier"]

    @pytest.mark.parametrize("name", TEMPLATES)
    def test_reinstantiation_never_aliases(self, name, serial_runs):
        first, second = _request(name, SEEDS[0]), _request(name, SEEDS[1])
        with PlanningService(workers=0) as service:
            _run(service, first)
            ticket, result = _run(service, second)
            assert service.poll(ticket)["cache_status"] == CACHE_MISS
            assert service.stats()["scheduler"]["invocations_run"] == (
                serial_runs[first.workload]["invocations"]
                + serial_runs[second.workload]["invocations"]
            )
        assert _frontier_costs(result) == serial_runs[second.workload]["frontier"]

    @pytest.mark.parametrize("name", TEMPLATES)
    def test_capped_probe_then_full_request_warm_starts(self, name, serial_runs):
        request = _request(name, 1)
        capped = request.with_overrides(budget=Budget(max_invocations=1))
        with PlanningService(workers=0) as service:
            _run(service, capped)
            ticket, result = _run(service, request)
            assert service.poll(ticket)["cache_status"] == CACHE_WARM
            # Only the missing invocations ran: 1 (probe) + the rest (resumed).
            assert service.stats()["scheduler"]["invocations_run"] == (
                serial_runs[request.workload]["invocations"]
            )
        assert _frontier_costs(result) == serial_runs[request.workload]["frontier"]


# ----------------------------------------------------------------------
# A cold phase, then the identical warm phase
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=MAX_SESSIONS)
def phases(request):
    """Both phases of the 12 template requests under one admission cap.

    Manual mode admits requests at submit up to the cap, so the cold phase
    keeps ``max_sessions`` sessions live at once, deterministically.
    """
    max_sessions = request.param
    requests = _phase_requests()
    with PlanningService(workers=0, max_sessions=max_sessions) as service:
        cold = [service.submit(r) for r in requests]
        service.run_until_idle()
        cold_stats = service.stats()
        warm = [service.submit(r) for r in requests]
        warm_states = [service.poll(t)["state"] for t in warm]
        service.run_until_idle()
        warm_stats = service.stats()
        return {
            "max_sessions": max_sessions,
            "workloads": [r.workload for r in requests],
            "cold": [
                (service.poll(t)["cache_status"], service.result(t, timeout=0.1))
                for t in cold
            ],
            "warm": [
                (service.poll(t)["cache_status"], service.result(t, timeout=0.1))
                for t in warm
            ],
            "warm_states": warm_states,
            "cold_stats": cold_stats,
            "warm_stats": warm_stats,
        }


class TestColdWarmPhases:
    def test_cold_phase_computes_everything(self, phases, serial_runs):
        assert [status for status, _ in phases["cold"]] == [CACHE_MISS] * len(
            phases["workloads"]
        )
        assert phases["cold_stats"]["scheduler"]["invocations_run"] == sum(
            run["invocations"] for run in serial_runs.values()
        )
        for workload, (_, result) in zip(phases["workloads"], phases["cold"]):
            assert _frontier_costs(result) == serial_runs[workload]["frontier"]

    def test_sessions_ran_concurrently(self, phases):
        scheduler = phases["cold_stats"]["scheduler"]
        assert scheduler["max_live_seen"] == phases["max_sessions"]
        assert scheduler["live_sessions"] == 0 and scheduler["queued"] == 0

    def test_warm_phase_runs_zero_invocations(self, phases):
        cold, warm = phases["cold_stats"], phases["warm_stats"]
        assert [status for status, _ in phases["warm"]] == [CACHE_HIT] * len(
            phases["workloads"]
        )
        assert phases["warm_states"] == [JOB_FINISHED] * len(phases["workloads"])
        for key in ("invocations_run", "submitted"):
            assert warm["scheduler"][key] == cold["scheduler"][key], key
        assert warm["cache"]["hits"] - cold["cache"]["hits"] == len(
            phases["workloads"]
        )

    def test_warm_frontiers_equal_cold_frontiers(self, phases):
        for (_, cold), (_, warm) in zip(phases["cold"], phases["warm"]):
            assert _frontier_costs(warm) == _frontier_costs(cold)
            assert [u.alpha for u in warm.invocations] == [
                u.alpha for u in cold.invocations
            ]


# ----------------------------------------------------------------------
# Across worker processes
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_template_traffic_replays_across_the_pool(serial_runs):
    requests = _phase_requests()
    with WorkerPoolService(workers=2, max_sessions=4) as pool:
        cold = [pool.submit(r) for r in requests]
        cold_results = [pool.result(t, timeout=120.0) for t in cold]
        computed = pool.stats()["scheduler"]["invocations_run"]
        warm = [pool.submit(r) for r in requests]
        warm_results = [pool.result(t, timeout=120.0) for t in warm]
        assert [pool.poll(t)["cache_status"] for t in cold] == [CACHE_MISS] * len(
            requests
        )
        assert [pool.poll(t)["cache_status"] for t in warm] == [CACHE_HIT] * len(
            requests
        )
        assert [pool.shard_of(t) for t in warm] == [pool.shard_of(t) for t in cold]
        assert pool.stats()["scheduler"]["invocations_run"] == computed
    assert computed == sum(run["invocations"] for run in serial_runs.values())
    for request, cold_result, warm_result in zip(requests, cold_results, warm_results):
        expected = serial_runs[request.workload]["frontier"]
        assert _frontier_costs(cold_result) == expected
        assert _frontier_costs(warm_result) == expected
