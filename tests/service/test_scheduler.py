"""Unit tests for the invocation-granularity scheduler.

Manual mode (``workers=0``) makes every interleaving deterministic: the tests
drive timeslices one at a time through ``step_once`` and assert the exact
round-robin order, admission behaviour and cancellation semantics.
"""

from __future__ import annotations

import pytest

from repro.api import Budget, OptimizeRequest, open_session
from repro.service import AdmissionError, Job, Scheduler
from repro.service.protocol import (
    JOB_CANCELLED,
    JOB_FAILED,
    JOB_FINISHED,
    JOB_QUEUED,
    JOB_RUNNING,
)

TINY = dict(levels=3, scale="tiny")


def _job(ticket, workload="gen:chain:3:0", **overrides):
    request = OptimizeRequest(workload=workload, **{**TINY, **overrides})
    return Job(ticket, request, session=open_session(request))


class TestAdmission:
    @pytest.mark.parametrize(
        "option, value",
        (("max_sessions", 0), ("max_queue", -1), ("workers", -1)),
    )
    def test_invalid_limits_are_rejected(self, option, value):
        with pytest.raises(ValueError, match=option):
            Scheduler(**{option: value})

    def test_backpressure_raises_admission_error(self):
        scheduler = Scheduler(max_sessions=1, max_queue=1, workers=0)
        scheduler.submit(_job("a"))
        scheduler.submit(_job("b"))  # queued
        with pytest.raises(AdmissionError):
            scheduler.submit(_job("c"))

    def test_backlog_admits_in_submission_order(self):
        scheduler = Scheduler(max_sessions=1, max_queue=8, workers=0)
        scheduler.submit(_job("live"))
        queued = [_job(f"queued-{index}") for index in range(3)]
        for job in queued:
            scheduler.submit(job)
        admitted = []
        while scheduler.step_once() is not None:
            running = [job.ticket for job in queued if job.state == JOB_RUNNING]
            assert len(running) <= 1  # one live session at a time
            if running and running[0] not in admitted:
                admitted.append(running[0])
        assert admitted == ["queued-0", "queued-1", "queued-2"]
        assert all(job.state == JOB_FINISHED for job in queued)

    def test_cancelling_a_queued_job_keeps_the_order_of_the_rest(self):
        scheduler = Scheduler(max_sessions=1, max_queue=8, workers=0)
        scheduler.submit(_job("live"))
        queued = [_job(f"queued-{index}") for index in range(3)]
        for job in queued:
            scheduler.submit(job)
        scheduler.cancel(queued[1])
        admitted = []
        while scheduler.step_once() is not None:
            for job in queued:
                if job.state == JOB_RUNNING and job.ticket not in admitted:
                    admitted.append(job.ticket)
        assert admitted == ["queued-0", "queued-2"]
        assert queued[1].state == JOB_CANCELLED
        assert queued[1].updates == []

    def test_finished_jobs_make_room_for_the_backlog(self):
        scheduler = Scheduler(max_sessions=2, max_queue=8, workers=0)
        jobs = [_job(f"j{i}") for i in range(4)]
        for job in jobs:
            scheduler.submit(job)
        assert [j.state for j in jobs] == [
            JOB_RUNNING, JOB_RUNNING, JOB_QUEUED, JOB_QUEUED,
        ]
        scheduler.run_until_idle()
        assert all(job.state == JOB_FINISHED for job in jobs)
        assert scheduler.stats()["max_live_seen"] == 2

    def test_closed_scheduler_rejects_submissions(self):
        scheduler = Scheduler(workers=0)
        scheduler.close()
        with pytest.raises(AdmissionError):
            scheduler.submit(_job("late"))


class TestPolicies:
    """The one timeslice rule: round-robin over the live sessions."""

    def test_fair_round_robin_interleaves_sessions(self):
        scheduler = Scheduler(max_sessions=4, workers=0)
        jobs = [_job(f"j{i}") for i in range(3)]
        for job in jobs:
            scheduler.submit(job)
        served = [scheduler.step_once() for _ in range(6)]
        assert served == ["j0", "j1", "j2", "j0", "j1", "j2"]

    def test_a_newly_admitted_session_joins_the_back_of_the_rotation(self):
        scheduler = Scheduler(max_sessions=4, workers=0)
        scheduler.submit(_job("j0"))
        scheduler.submit(_job("j1"))
        assert scheduler.step_once() == "j0"
        scheduler.submit(_job("late"))
        served = [scheduler.step_once() for _ in range(3)]
        assert served == ["j1", "j0", "late"]

    def test_a_finished_session_leaves_the_rotation(self):
        scheduler = Scheduler(max_sessions=4, workers=0)
        for job in (_job("short", levels=1), _job("j1"), _job("j2")):
            scheduler.submit(job)
        served = list(iter(scheduler.step_once, None))
        assert served == ["short"] + ["j1", "j2"] * 3

    def test_a_cancelled_session_leaves_the_rotation(self):
        scheduler = Scheduler(max_sessions=4, workers=0)
        jobs = [_job(f"j{i}") for i in range(3)]
        for job in jobs:
            scheduler.submit(job)
        assert scheduler.step_once() == "j0"
        scheduler.cancel(jobs[1])
        served = list(iter(scheduler.step_once, None))
        assert served == ["j2", "j0", "j2", "j0", "j2"]
        assert [len(job.updates) for job in jobs] == [3, 0, 3]

    def test_an_admitted_backlog_job_joins_the_back_of_the_rotation(self):
        scheduler = Scheduler(max_sessions=2, max_queue=4, workers=0)
        for job in (_job("short", levels=1), _job("long"), _job("queued")):
            scheduler.submit(job)
        served = list(iter(scheduler.step_once, None))
        assert served == ["short"] + ["long", "queued"] * 3

    @pytest.mark.parametrize("levels", ((3, 3, 3), (1, 3, 5), (5, 2, 4, 1)))
    def test_live_sessions_never_drift_more_than_one_slice_apart(self, levels):
        scheduler = Scheduler(max_sessions=len(levels), workers=0)
        jobs = [_job(f"j{i}", levels=depth) for i, depth in enumerate(levels)]
        for job in jobs:
            scheduler.submit(job)
        while scheduler.step_once() is not None:
            served = [len(job.updates) for job in jobs if not job.terminal]
            assert not served or max(served) - min(served) <= 1
        assert [len(job.updates) for job in jobs] == list(levels)


class TestLifecycle:
    def test_finish_rejects_a_non_terminal_state(self):
        job = _job("j")
        with pytest.raises(ValueError):
            job.finish(JOB_RUNNING)
        assert job.state == JOB_QUEUED and job.finished_at is None

    def test_a_job_finishes_once(self):
        job = _job("j")
        assert job.finish(JOB_CANCELLED, error="first")
        assert not job.finish(JOB_FAILED, error="second")
        assert job.state == JOB_CANCELLED and job.error == "first"

    def test_cancel_queued_job(self):
        scheduler = Scheduler(max_sessions=1, max_queue=4, workers=0)
        scheduler.submit(_job("live"))
        queued = _job("queued")
        scheduler.submit(queued)
        scheduler.cancel(queued)
        assert queued.state == JOB_CANCELLED

    def test_cancel_live_job_stops_at_the_slice_boundary(self):
        scheduler = Scheduler(max_sessions=2, workers=0)
        job = _job("victim", levels=5)
        scheduler.submit(job)
        scheduler.step_once()
        assert len(job.updates) == 1
        scheduler.cancel(job)
        assert job.state == JOB_CANCELLED
        assert len(job.updates) == 1  # no further slices ran
        assert job.result_payload is not None
        assert job.result_payload["finish_reason"] == "in_progress"

    def test_cancelling_a_terminal_job_is_a_no_op(self):
        scheduler = Scheduler(workers=0)
        job = _job("done", levels=1)
        scheduler.submit(job)
        scheduler.run_until_idle()
        assert job.state == JOB_FINISHED
        scheduler.cancel(job)
        assert job.state == JOB_FINISHED

    def test_failures_are_contained_to_their_job(self):
        scheduler = Scheduler(max_sessions=4, workers=0)
        bad = _job("bad")
        bad.session = None  # forces an AttributeError inside the slice
        good = _job("good")
        scheduler.submit(bad)
        scheduler.submit(good)
        scheduler.run_until_idle()
        assert bad.state == JOB_FAILED
        assert bad.error is not None
        assert good.state == JOB_FINISHED
        assert scheduler.stats()["failed"] == 1

    def test_malformed_steer_is_rejected_synchronously(self):
        from repro.core.control import ChangeBounds
        from repro.costs.vector import CostVector

        scheduler = Scheduler(workers=0)
        job = _job("steered", levels=4)
        scheduler.submit(job)
        scheduler.step_once()
        with pytest.raises(ValueError):
            scheduler.steer(job, ChangeBounds(CostVector([1.0])))  # wrong dims
        # The job survives: the bad action never reached the session.
        scheduler.run_until_idle()
        assert job.state == JOB_FINISHED

    def test_terminal_jobs_release_their_sessions(self):
        scheduler = Scheduler(workers=0)
        job = _job("released")
        scheduler.submit(job)
        scheduler.run_until_idle()
        assert job.state == JOB_FINISHED
        assert job.session is None

    def test_budget_is_enforced_under_the_scheduler(self):
        scheduler = Scheduler(workers=0)
        job = _job("capped", budget=Budget(max_invocations=1))
        scheduler.submit(job)
        scheduler.run_until_idle()
        assert job.state == JOB_FINISHED
        assert len(job.updates) == 1
        assert job.result_payload["finish_reason"] == "invocation_cap"

    def test_stats_gauges(self):
        scheduler = Scheduler(max_sessions=2, workers=0)
        for i in range(3):
            scheduler.submit(_job(f"j{i}"))
        scheduler.run_until_idle()
        stats = scheduler.stats()
        assert stats["submitted"] == 3
        assert stats["finished"] == 3
        assert stats["invocations_run"] == 9  # 3 jobs x 3 levels
        assert stats["live_sessions"] == 0
        assert stats["max_live_seen"] == 2


class TestThreadedWorkers:
    def test_close_stops_handing_out_slices(self):
        scheduler = Scheduler(max_sessions=4, workers=2)
        scheduler.start()
        jobs = [_job(f"j{i}", levels=8) for i in range(4)]
        for job in jobs:
            scheduler.submit(job)
        scheduler.close()  # must return promptly, not drain 32 invocations
        # Workers have exited (close joins them): the slice counter is
        # frozen and no further slices are handed out.
        after_close = scheduler.stats()["invocations_run"]
        import time

        time.sleep(0.05)
        assert scheduler.stats()["invocations_run"] == after_close
        assert scheduler.step_once() is None  # closed: no further slices

    def test_worker_threads_drain_the_backlog(self):
        scheduler = Scheduler(max_sessions=4, workers=2)
        scheduler.start()
        jobs = [_job(f"j{i}") for i in range(6)]
        try:
            for job in jobs:
                scheduler.submit(job)
            with scheduler.condition:
                deadline = 30.0
                while not all(job.terminal for job in jobs) and deadline > 0:
                    scheduler.condition.wait(timeout=0.1)
                    deadline -= 0.1
        finally:
            scheduler.close()
        assert all(job.state == JOB_FINISHED for job in jobs)
        assert scheduler.stats()["invocations_run"] == 6 * 3
