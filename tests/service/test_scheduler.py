"""Unit tests for the invocation-granularity scheduler.

Manual mode (``workers=0``) makes every interleaving deterministic: the tests
drive timeslices one at a time through ``step_once`` and assert the exact
policy order, admission behaviour and cancellation semantics.
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


def _job(ticket, workload="gen:chain:3:0", priority=0, deadline=None, **overrides):
    request = OptimizeRequest(workload=workload, **{**TINY, **overrides})
    return Job(
        ticket,
        request,
        session=open_session(request),
        priority=priority,
        deadline_seconds=deadline,
    )


class TestAdmission:
    def test_backpressure_raises_admission_error(self):
        scheduler = Scheduler(max_sessions=1, max_queue=1, workers=0)
        scheduler.submit(_job("a"))
        scheduler.submit(_job("b"))  # queued
        with pytest.raises(AdmissionError):
            scheduler.submit(_job("c"))

    def test_priorities_order_the_backlog(self):
        scheduler = Scheduler(max_sessions=1, max_queue=8, workers=0)
        scheduler.submit(_job("low"))
        low_queued = _job("queued-low", priority=0)
        high_queued = _job("queued-high", priority=5)
        scheduler.submit(low_queued)
        scheduler.submit(high_queued)
        assert low_queued.state == JOB_QUEUED
        # Drain the live job; the high-priority one must be admitted first.
        while low_queued.state == JOB_QUEUED and high_queued.state == JOB_QUEUED:
            scheduler.step_once()
        assert high_queued.state == JOB_RUNNING
        assert low_queued.state == JOB_QUEUED

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
    def test_fair_round_robin_interleaves_sessions(self):
        scheduler = Scheduler(policy="fair", max_sessions=4, workers=0)
        jobs = [_job(f"j{i}") for i in range(3)]
        for job in jobs:
            scheduler.submit(job)
        served = [scheduler.step_once() for _ in range(6)]
        assert served == ["j0", "j1", "j2", "j0", "j1", "j2"]

    def test_edf_serves_the_earliest_deadline_first(self):
        scheduler = Scheduler(policy="edf", max_sessions=4, workers=0)
        scheduler.submit(_job("relaxed", deadline=30.0))
        scheduler.submit(_job("urgent", deadline=1.0))
        scheduler.submit(_job("nodeadline"))
        # EDF serves the earliest deadline exclusively until it completes
        # (3 levels = 3 slices), then the next deadline, then the rest.
        served = [scheduler.step_once() for _ in range(9)]
        assert served == ["urgent"] * 3 + ["relaxed"] * 3 + ["nodeadline"] * 3

    def test_alpha_greedy_serves_unvisualized_sessions_first(self):
        scheduler = Scheduler(policy="alpha_greedy", max_sessions=4, workers=0)
        first = _job("first")
        scheduler.submit(first)
        assert scheduler.step_once() == "first"
        # A newcomer has everything to gain; it must preempt the refinement.
        scheduler.submit(_job("newcomer"))
        assert scheduler.step_once() == "newcomer"

    def test_alpha_greedy_spends_slices_on_the_largest_gain(self):
        scheduler = Scheduler(policy="alpha_greedy", max_sessions=4, workers=0)
        coarse = _job("coarse", levels=5)   # large per-level alpha drop left
        fine = _job("fine", levels=5, precision="fine")
        scheduler.submit(coarse)
        scheduler.submit(fine)
        scheduler.run_until_idle()
        assert coarse.state == JOB_FINISHED and fine.state == JOB_FINISHED

    def test_unknown_policy_is_rejected(self):
        with pytest.raises(ValueError):
            Scheduler(policy="random")


class TestLifecycle:
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
        scheduler = Scheduler(policy="fair", max_sessions=2, workers=0)
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
        scheduler = Scheduler(policy="fair", max_sessions=4, workers=2)
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
        scheduler = Scheduler(policy="fair", max_sessions=4, workers=2)
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
