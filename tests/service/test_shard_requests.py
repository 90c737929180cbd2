"""A shard's request and progress helpers, exercised in one process.

``shard_main`` serves each parent request with ``_handle_request`` and
pushes frontier updates and terminal statuses with ``_push_progress``.
These tests drive both helpers over a manual-mode ``PlanningService`` and a
connection that pickles every message the way the pipe does, so the shard's
job bookkeeping and its error replies are checked without spawning worker
processes.
"""

from __future__ import annotations

import pickle

import pytest

from repro.api import OptimizeRequest
from repro.service import AdmissionError, PlanningService, ServiceError
from repro.service.protocol import steer_bounds_payload, steer_select_payload
from repro.service.shard import _handle_request, _push_progress

REQUESTS = [
    OptimizeRequest(workload=f"gen:{topology}:4:0", levels=3, scale="tiny")
    for topology in ("chain", "star", "cycle", "clique")
]


class PipeEnd:
    """The shard's end of the pipe: every message is pickled, then kept."""

    def __init__(self):
        self.sent = []

    def send(self, message: dict) -> None:
        pickle.dumps(message)
        self.sent.append(message)

    def ops(self, op: str) -> list:
        return [message for message in self.sent if message["op"] == op]


def _request(conn: PipeEnd, service, open_jobs: dict, message: dict) -> dict:
    """Serve one request and return its reply."""
    _handle_request(conn, service, open_jobs, {"req_id": 7, **message})
    reply = conn.sent[-1]
    assert reply["op"] == "reply" and reply["req_id"] == 7
    return reply


def _submit(conn, service, open_jobs, ticket, request) -> dict:
    return _request(
        conn,
        service,
        open_jobs,
        {"op": "submit", "ticket": ticket, "request": request.to_dict()},
    )


class TestOpenJobs:
    def test_finished_jobs_leave_the_shard_bookkeeping(self):
        conn, open_jobs = PipeEnd(), {}
        with PlanningService(workers=0) as service:
            tickets = [f"job-{index:06d}" for index in range(len(REQUESTS))]
            for ticket, request in zip(tickets, REQUESTS):
                assert "error" not in _submit(conn, service, open_jobs, ticket, request)
            service.step_once()
            _push_progress(conn, service, open_jobs)
            assert sorted(open_jobs) == tickets  # running or queued: kept
            service.run_until_idle()
            _push_progress(conn, service, open_jobs)
            assert open_jobs == {}
            statuses = conn.ops("status")
            assert sorted(message["ticket"] for message in statuses) == tickets
            assert {message["status"]["state"] for message in statuses} == {"finished"}
            for ticket, request in zip(tickets, REQUESTS):
                updates = [m for m in conn.ops("update") if m["ticket"] == ticket]
                assert len(updates) == request.levels
            # A later sweep pushes nothing more.
            pushed = len(conn.sent)
            _push_progress(conn, service, open_jobs)
            assert len(conn.sent) == pushed

    def test_pushed_jobs_leave_the_shard_job_table(self):
        conn, open_jobs = PipeEnd(), {}
        with PlanningService(workers=0) as service:
            for index, request in enumerate(REQUESTS):
                _submit(conn, service, open_jobs, f"job-{index:06d}", request)
            service.run_until_idle()
            _push_progress(conn, service, open_jobs)
            assert open_jobs == {}
            assert service.tickets() == []
            # A repeat is a cache hit: replayed and terminal at admission.
            reply = _submit(conn, service, open_jobs, "job-000100", REQUESTS[0])
            assert reply["accepted"]["cache_status"] == "hit"
            assert len(service.tickets()) == 1
            _push_progress(conn, service, open_jobs)
            assert open_jobs == {}
            assert service.tickets() == []
            [status] = [m for m in conn.ops("status") if m["ticket"] == "job-000100"]
            assert status["status"]["state"] == "finished"
            assert status["replayed"] == REQUESTS[0].levels
            updates = [m for m in conn.ops("update") if m["ticket"] == "job-000100"]
            assert len(updates) == REQUESTS[0].levels

    def test_a_forgotten_job_answers_like_a_terminal_one(self):
        conn, open_jobs = PipeEnd(), {}
        with PlanningService(workers=0) as service:
            _submit(conn, service, open_jobs, "job-000001", REQUESTS[0])
            service.run_until_idle()
            _push_progress(conn, service, open_jobs)
            assert open_jobs == {}
            steer = _request(
                conn,
                service,
                open_jobs,
                {"op": "steer", "ticket": "job-000001", "payload": steer_select_payload(0)},
            )
            assert type(steer["error"]) is RuntimeError  # HTTP 409
            cancel = _request(conn, service, open_jobs, {"op": "cancel", "ticket": "job-000001"})
            assert "error" not in cancel

    def test_a_cancelled_job_is_pushed_once_and_forgotten(self):
        conn, open_jobs = PipeEnd(), {}
        with PlanningService(workers=0) as service:
            _submit(conn, service, open_jobs, "job-000001", REQUESTS[3])
            service.step_once()
            assert "error" not in _request(
                conn, service, open_jobs, {"op": "cancel", "ticket": "job-000001"}
            )
            _push_progress(conn, service, open_jobs)
            _push_progress(conn, service, open_jobs)
            assert open_jobs == {}
            [status] = conn.ops("status")
            assert status["status"]["state"] == "cancelled"
            assert len(conn.ops("update")) == 1


class TestErrorReplies:
    @pytest.mark.parametrize(
        "message, error_type",
        [
            ({"op": "frobnicate"}, ValueError),
            (
                {
                    "op": "submit",
                    "ticket": "job-000001",
                    "request": OptimizeRequest(
                        workload="gen:chain:3:0", algorithm="nope"
                    ).to_dict(),
                },
                KeyError,
            ),
            (
                {
                    "op": "submit",
                    "ticket": "job-000001",
                    "request": {"workload": "gen:nowhere:3:0"},
                },
                ValueError,
            ),
        ],
    )
    def test_the_reply_carries_the_exception_itself(self, message, error_type):
        with PlanningService(workers=0) as service:
            reply = _request(PipeEnd(), service, {}, message)
            assert isinstance(reply["error"], error_type)

    def test_steering_with_the_wrong_metric_count_is_a_value_error(self):
        conn, open_jobs = PipeEnd(), {}
        with PlanningService(workers=0) as service:
            _submit(conn, service, open_jobs, "job-000001", REQUESTS[0])
            service.step_once()
            reply = _request(
                conn,
                service,
                open_jobs,
                {"op": "steer", "ticket": "job-000001", "payload": steer_bounds_payload([1.0])},
            )
            assert type(reply["error"]) is ValueError

    def test_admission_errors_keep_their_type(self):
        conn, open_jobs = PipeEnd(), {}
        with PlanningService(workers=0, max_sessions=1, max_queue=0) as service:
            _submit(conn, service, open_jobs, "job-000001", REQUESTS[0])
            reply = _submit(conn, service, open_jobs, "job-000002", REQUESTS[1])
            assert type(reply["error"]) is AdmissionError
            assert list(open_jobs) == ["job-000001"]

    def test_an_exception_that_cannot_cross_the_pipe_becomes_a_service_error(
        self, monkeypatch
    ):
        class Unpicklable(Exception):
            """Defined in a function, so pickle cannot find it by name."""

        def stats():
            raise Unpicklable("no stats today")

        with PlanningService(workers=0) as service:
            monkeypatch.setattr(service, "stats", stats)
            reply = _request(PipeEnd(), service, {}, {"op": "stats"})
            assert type(reply["error"]) is ServiceError
            assert str(reply["error"]) == "Unpicklable: no stats today"
