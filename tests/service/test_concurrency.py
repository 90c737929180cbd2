"""Concurrency safety of sessions under the scheduler.

Two properties:

* **Isolation** — two sessions refining simultaneously never share plan
  arenas, arena ids, or kernel scratch state: every plan of a session's
  frontier belongs to that session's private factory arena, and concurrent
  execution produces frontiers bit-identical to isolated serial runs on both
  kernel backends (the kernel holds no per-call mutable state to corrupt).
* **Interleaving determinism** — scheduler-interleaved execution yields
  bit-identical frontiers to serial execution per request, with fixed
  seeds, both in manual single-thread mode and with a thread pool.
"""

from __future__ import annotations

import threading

import pytest

from repro import kernel
from repro.api import OptimizeRequest, open_session
from repro.service import PlanningService

TINY = dict(levels=3, scale="tiny")
TOPOLOGIES = ("chain", "star", "cycle", "clique")


def _frontier_costs(result):
    return [tuple(summary.cost) for summary in result.frontier]


class TestSessionIsolation:
    def test_concurrent_sessions_use_disjoint_arenas(self):
        request = OptimizeRequest(workload="gen:star:4:0", **TINY)
        sessions = [open_session(request) for _ in range(2)]
        errors = []

        def drain(session):
            try:
                session.run()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=drain, args=(session,))
            for session in sessions
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        arena_a = sessions[0].driver.factory.arena
        arena_b = sessions[1].driver.factory.arena
        assert arena_a is not arena_b
        for session, arena in zip(sessions, (arena_a, arena_b)):
            for plan in session.frontier_plans:
                assert plan.arena is arena, (
                    "a frontier plan leaked into a foreign session's arena"
                )
        # Identical requests assign identical (per-arena) ids — deterministic
        # per query, never process-global.
        ids_a = sorted(plan.plan_id for plan in sessions[0].frontier_plans)
        ids_b = sorted(plan.plan_id for plan in sessions[1].frontier_plans)
        assert ids_a == ids_b

    @pytest.mark.parametrize("backend", ("python", "numpy"))
    def test_concurrent_frontiers_match_serial_on_both_backends(self, backend):
        try:
            with kernel.use_backend(backend):
                requests = [
                    OptimizeRequest(workload=f"gen:{topology}:4:0", **TINY)
                    for topology in TOPOLOGIES
                ]
                serial = {
                    request.workload: _frontier_costs(open_session(request).run())
                    for request in requests
                }
                with PlanningService(
                    workers=4, max_sessions=4, cache=False
                ) as service:
                    tickets = {
                        request.workload: service.submit(request)
                        for request in requests
                    }
                    for workload, ticket in tickets.items():
                        result = service.result(ticket, timeout=120.0)
                        assert _frontier_costs(result) == serial[workload], (
                            f"{backend}: concurrent frontier of {workload} "
                            "diverged from serial execution"
                        )
        except ImportError:
            pytest.skip(f"kernel backend {backend!r} unavailable")


# Round-robin serves the live sessions in submission order, so each order
# of the same requests is a different interleaving.
SUBMISSION_ORDERS = {
    "forward": lambda items: list(items),
    "reversed": lambda items: list(reversed(items)),
    "rotated": lambda items: list(items[1:]) + list(items[:1]),
}


class TestInterleavingDeterminism:
    @pytest.mark.parametrize("order", sorted(SUBMISSION_ORDERS))
    @pytest.mark.parametrize("seed", (0, 1))
    def test_manual_interleaving_is_bit_identical_to_serial(self, seed, order):
        requests = SUBMISSION_ORDERS[order](
            [
                OptimizeRequest(workload=f"gen:{topology}:4:{seed}", **TINY)
                for topology in TOPOLOGIES
            ]
        )
        serial = {
            request.workload: _frontier_costs(open_session(request).run())
            for request in requests
        }
        with PlanningService(
            workers=0, max_sessions=len(requests), cache=False
        ) as service:
            tickets = {
                request.workload: service.submit(request) for request in requests
            }
            slices = service.run_until_idle()
            assert slices == len(requests) * TINY["levels"]
            for workload, ticket in tickets.items():
                result = service.result(ticket, timeout=0.1)
                assert _frontier_costs(result) == serial[workload], (
                    f"seed {seed}, {order} order: interleaved frontier of "
                    f"{workload} diverged from serial execution"
                )

    def test_interleaving_matches_with_constrained_admission(self):
        # max_sessions < requests forces queue churn mid-interleave.
        requests = [
            OptimizeRequest(workload=f"gen:{topology}:4:1", **TINY)
            for topology in TOPOLOGIES
        ]
        serial = {
            request.workload: _frontier_costs(open_session(request).run())
            for request in requests
        }
        with PlanningService(workers=0, max_sessions=2, cache=False) as service:
            tickets = {
                request.workload: service.submit(request) for request in requests
            }
            service.run_until_idle()
            for workload, ticket in tickets.items():
                result = service.result(ticket, timeout=0.1)
                assert _frontier_costs(result) == serial[workload]
