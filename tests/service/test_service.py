"""Tests for the :class:`PlanningService` façade.

The centrepiece is the differential guarantee: the frontier a request
receives from the service — cold, replayed, or warm-started — is
bit-identical to running the same ``OptimizeRequest``
through ``open_session`` serially, across all four join topologies and two
seeds.
"""

from __future__ import annotations

import pytest

from repro.api import Budget, OptimizeRequest, open_session
from repro.service import (
    CACHE_BYPASS,
    CACHE_HIT,
    CACHE_MISS,
    CACHE_WARM,
    AdmissionError,
    PlanningService,
    UnknownTicketError,
)

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
def serial_frontiers():
    """Ground truth: each request run serially through open_session."""
    return {
        request.workload: _frontier_costs(open_session(request).run())
        for request in _requests()
    }


# ----------------------------------------------------------------------
# The differential guarantee
# ----------------------------------------------------------------------
class TestDifferentialGuarantee:
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_service_frontiers_are_bit_identical_to_serial(
        self, workers, serial_frontiers
    ):
        with PlanningService(workers=workers, max_sessions=4) as service:
            tickets = {
                request.workload: service.submit(request)
                for request in _requests()
            }
            for workload, ticket in tickets.items():
                result = service.result(ticket, timeout=120.0)
                assert _frontier_costs(result) == serial_frontiers[workload], (
                    f"workers {workers}: frontier of {workload} diverged from "
                    "serial execution"
                )

    @pytest.mark.parametrize("max_sessions", (1, 3, 8))
    def test_manual_interleaving_matches_serial(self, max_sessions, serial_frontiers):
        # Manual mode: one deterministic round-robin interleaving per
        # admission cap, stepped to completion on one thread.  A cap of 8
        # admits all requests at once, 3 churns the FIFO backlog mid-run and
        # 1 runs them back to back.
        with PlanningService(
            workers=0, max_sessions=max_sessions, cache=False
        ) as service:
            tickets = {
                request.workload: service.submit(request)
                for request in _requests()
            }
            service.run_until_idle()
            for workload, ticket in tickets.items():
                result = service.result(ticket, timeout=0.1)
                assert _frontier_costs(result) == serial_frontiers[workload]

    def test_replayed_results_are_bit_identical(self, serial_frontiers):
        with PlanningService(workers=2) as service:
            request = _requests()[0]
            first = service.submit(request)
            service.result(first, timeout=60.0)
            second = service.submit(request)
            result = service.result(second, timeout=60.0)
            assert service.poll(second)["cache_status"] == CACHE_HIT
            assert _frontier_costs(result) == serial_frontiers[request.workload]
            assert service.stats()["scheduler"]["invocations_run"] == len(
                result.invocations
            )

    @pytest.mark.parametrize("cache", (True, False), ids=("cache_on", "cache_off"))
    def test_repeats_match_the_cold_trace(self, cache, serial_frontiers):
        # Every request in flight at once, then each one resubmitted twice.
        # With the cache the repeats replay without running a timeslice;
        # without it they recompute every invocation.  Either way every
        # frontier is the serial one.
        requests = _requests()
        with PlanningService(workers=0, cache=cache) as service:
            cold = [service.submit(request) for request in requests]
            cold_slices = service.run_until_idle()
            warm = [service.submit(request) for _ in range(2) for request in requests]
            warm_slices = service.run_until_idle()
            for request, ticket in zip(requests * 3, cold + warm):
                result = service.result(ticket, timeout=0.1)
                assert _frontier_costs(result) == serial_frontiers[request.workload]
            statuses = {service.poll(ticket)["cache_status"] for ticket in warm}
        assert cold_slices == sum(request.levels for request in requests)
        assert warm_slices == (0 if cache else 2 * cold_slices)
        assert statuses == {CACHE_HIT if cache else CACHE_MISS}

    def test_warm_started_results_are_bit_identical(self, serial_frontiers):
        request = _requests()[1]
        capped = request.with_overrides(budget=Budget(max_invocations=1))
        with PlanningService(workers=2) as service:
            service.result(service.submit(capped), timeout=60.0)
            ticket = service.submit(request)
            result = service.result(ticket, timeout=60.0)
            assert service.poll(ticket)["cache_status"] == CACHE_WARM
            assert _frontier_costs(result) == serial_frontiers[request.workload]
            # Only the missing invocations ran: 1 (capped) + 2 (resumed).
            assert service.stats()["scheduler"]["invocations_run"] == request.levels


# ----------------------------------------------------------------------
# Verbs and edge cases
# ----------------------------------------------------------------------
class TestVerbs:
    def test_stream_replays_prefix_and_live_updates(self):
        request = OptimizeRequest(workload="gen:chain:4:0", **TINY)
        with PlanningService(workers=1) as service:
            ticket = service.submit(request)
            updates = list(service.stream(ticket, timeout=60.0))
            assert len(updates) == request.levels
            alphas = [u["invocation"]["alpha"] for u in updates]
            assert alphas == sorted(alphas, reverse=True)
            # Replayed stream is identical payload-for-payload.
            replay = list(service.stream(service.submit(request), timeout=60.0))
            assert replay == updates

    def test_steer_changes_bounds_remotely(self):
        request = OptimizeRequest(workload="gen:star:4:0", levels=4, scale="tiny")
        with PlanningService(workers=0, cache=False) as service:
            ticket = service.submit(request)
            service.step_once()
            job = service.job(ticket)
            frontier = job.updates[0]["frontier"]
            tighter = [c * 2 for c in frontier[0]["cost"] if isinstance(c, float)]
            bounds_payload = {
                "schema_version": 1,
                "kind": "steer_request",
                "action": "change_bounds",
                "bounds": [v if isinstance(v, float) else v for v in tighter],
            }
            service.steer(ticket, bounds_payload)
            service.run_until_idle()
            result = service.result(ticket, timeout=1.0)
            assert result.finish_reason == "exhausted"
            # The bounds change reset the resolution: more invocations than a
            # plain sweep.  (The session itself is released at the terminal
            # transition; the steer is visible through the invocation count.)
            assert len(result.invocations) > request.levels
            assert service.job(ticket).session is None

    def test_steered_sessions_are_never_cached(self):
        request = OptimizeRequest(workload="gen:star:4:0", **TINY)
        with PlanningService(workers=0) as service:
            ticket = service.submit(request)
            service.step_once()
            service.steer(
                ticket,
                {
                    "schema_version": 1,
                    "kind": "steer_request",
                    "action": "select",
                    "index": 0,
                },
            )
            service.run_until_idle()
            result = service.result(ticket, timeout=1.0)
            assert result.finish_reason == "selected"
            assert result.selected_plan is not None
            # A repeat submission must run cold: the steered trace is tainted.
            repeat = service.submit(request)
            assert service.poll(repeat)["cache_status"] == CACHE_MISS

    def test_cancel(self):
        request = OptimizeRequest(workload="gen:clique:4:0", levels=5, scale="tiny")
        with PlanningService(workers=0, cache=False) as service:
            ticket = service.submit(request)
            service.step_once()
            status = service.cancel(ticket)
            assert status["state"] == "cancelled"
            # Anytime semantics: a cancelled job still reports the partial
            # frontier it computed, marked in_progress.
            result = service.result(ticket, timeout=1.0)
            assert result.finish_reason == "in_progress"
            assert len(result.invocations) == 1

    def test_deadline_budgets_bypass_the_cache(self):
        request = OptimizeRequest(
            workload="gen:chain:4:0",
            budget=Budget(deadline_seconds=60.0),
            **TINY,
        )
        with PlanningService(workers=1) as service:
            ticket = service.submit(request)
            service.result(ticket, timeout=60.0)
            assert service.poll(ticket)["cache_status"] == CACHE_BYPASS
            # Its deterministic prefix is still recorded for future replay.
            plain = service.submit(
                request.with_overrides(budget=Budget(max_invocations=1))
            )
            service.result(plain, timeout=60.0)
            assert service.poll(plain)["cache_status"] == CACHE_HIT

    def test_unknown_ticket(self):
        with PlanningService(workers=0) as service:
            with pytest.raises(UnknownTicketError):
                service.poll("job-999999")

    def test_unknown_algorithm_fails_at_submit(self):
        with PlanningService(workers=0) as service:
            with pytest.raises(KeyError):
                service.submit(
                    OptimizeRequest(workload="gen:chain:3:0", algorithm="nope")
                )

    def test_admission_error_surfaces_and_never_loses_parked_sessions(self):
        request = OptimizeRequest(workload="gen:chain:4:0", **TINY)
        capped = request.with_overrides(budget=Budget(max_invocations=1))
        with PlanningService(workers=0, max_sessions=1, max_queue=0) as service:
            first = service.submit(capped)
            service.run_until_idle()
            assert service.poll(first)["state"] == "finished"
            # Fill the only session slot, then force a warm submit to bounce.
            service.submit(
                OptimizeRequest(workload="gen:star:5:3", levels=5, scale="tiny")
            )
            with pytest.raises(AdmissionError):
                service.submit(request)  # wants the parked session, no room
            service.run_until_idle()
            # The parked session survived the bounced submission.
            retry = service.submit(request)
            service.run_until_idle()
            assert service.poll(retry)["cache_status"] == CACHE_WARM
            assert service.result(retry, timeout=1.0).finish_reason == "exhausted"

    def test_cancelled_warm_start_reparks_the_session(self):
        request = OptimizeRequest(workload="gen:chain:4:0", levels=4, scale="tiny")
        capped = request.with_overrides(budget=Budget(max_invocations=1))
        with PlanningService(workers=0) as service:
            service.submit(capped)
            service.run_until_idle()
            # Warm start, then cancel before it computes anything new.
            warm = service.submit(request)
            assert service.poll(warm)["cache_status"] == CACHE_WARM
            service.cancel(warm)
            assert service.poll(warm)["state"] == "cancelled"
            # The popped session was re-parked: the next attempt warm-starts
            # again instead of recomputing from scratch.
            retry = service.submit(request)
            assert service.poll(retry)["cache_status"] == CACHE_WARM
            service.run_until_idle()
            assert service.result(retry, timeout=1.0).finish_reason == "exhausted"

    def test_terminal_job_records_are_pruned_beyond_the_cap(self):
        with PlanningService(workers=0, cache=False, max_retained_jobs=2) as service:
            tickets = []
            for seed in range(4):
                tickets.append(
                    service.submit(
                        OptimizeRequest(workload=f"gen:chain:3:{seed}", **TINY)
                    )
                )
                service.run_until_idle()
            # The two oldest terminal records were dropped; the two newest
            # still answer polls.
            assert service.poll(tickets[-1])["state"] == "finished"
            with pytest.raises(UnknownTicketError):
                service.poll(tickets[0])

    def test_stats_payload_shape(self):
        with PlanningService(workers=0) as service:
            stats = service.stats()
            assert stats["kind"] == "service_stats"
            assert "scheduler" in stats and "cache" in stats

    def test_all_registered_planners_run_through_the_service(self):
        with PlanningService(workers=1) as service:
            for algorithm in ("iama", "memoryless", "oneshot", "exhaustive",
                              "single_objective"):
                request = OptimizeRequest(
                    workload="gen:chain:3:0", algorithm=algorithm, **TINY
                )
                ticket = service.submit(request)
                result = service.result(ticket, timeout=60.0)
                serial = open_session(request).run()
                assert _frontier_costs(result) == _frontier_costs(serial), algorithm
