"""The job table both serving tiers answer their blocking verbs from.

The in-process :class:`~repro.service.service.PlanningService` builds it over
its scheduler's condition, the :class:`~repro.service.shard.WorkerPoolService`
over its own, which its reader threads notify as shard messages land on the
parent's relay records.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Dict, Iterator, List, Optional

from repro.api.request import OptimizeRequest
from repro.api.schema import OptimizationResult
from repro.service.protocol import JOB_FAILED
from repro.service.scheduler import Job

#: How long ``cancel`` waits for the job to end: a slice already executing
#: completes first.
CANCEL_SETTLE_SECONDS = 10.0


class ServiceError(RuntimeError):
    """A job failed or a service verb was used incorrectly."""


class UnknownTicketError(KeyError):
    """No job is registered under this ticket."""


class JobTable:
    """Ticket → :class:`Job` records and the verbs that block on them.

    ``max_retained_jobs`` bounds the terminal records kept for
    poll/stream/result: a long-running server must not keep one record per
    request forever, so the oldest terminal ones are dropped as new jobs
    register.  Live and queued jobs are never dropped.
    """

    def __init__(
        self,
        condition: threading.Condition,
        clock: Callable[[], float],
        max_retained_jobs: int,
    ):
        if max_retained_jobs < 1:
            raise ValueError("max_retained_jobs must be at least 1")
        #: Guards every job record; whoever changes a job notifies it.
        self.condition = condition
        self._clock = clock
        self._jobs: Dict[str, Job] = {}
        self._max_retained_jobs = max_retained_jobs
        self._tickets = itertools.count(1)
        self._closed = False

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Wake every waiter: streams end and waits raise :class:`ServiceError`."""
        with self.condition:
            self._closed = True
            self.condition.notify_all()

    def _new_job(self, request: OptimizeRequest) -> Job:
        """An unregistered record under the next ticket, on the table's clock."""
        return Job(
            f"job-{next(self._tickets):06d}", request, session=None, clock=self._clock
        )

    def _register(self, job: Job) -> None:
        """Add a record, first dropping the oldest terminal ones over the cap."""
        with self.condition:
            if len(self._jobs) > self._max_retained_jobs:
                for ticket in list(self._jobs):
                    if len(self._jobs) <= self._max_retained_jobs:
                        break
                    if self._jobs[ticket].terminal:
                        del self._jobs[ticket]
            self._jobs[job.ticket] = job

    def _unregister(self, ticket: str) -> None:
        """Forget a job: its admission failed, or nobody reads it any more."""
        with self.condition:
            self._jobs.pop(ticket, None)

    def job(self, ticket: str) -> Job:
        """The :class:`Job` record (tests and benchmarks introspect it)."""
        with self.condition:
            job = self._jobs.get(ticket)
        if job is None:
            raise UnknownTicketError(f"unknown ticket {ticket!r}")
        return job

    def tickets(self) -> List[str]:
        with self.condition:
            return list(self._jobs)

    def _wait_locked(self, done: Callable[[], bool], deadline: Optional[float]) -> bool:
        """Wait on the held condition until ``done()``; False once closed or late."""
        while not done():
            if self._closed:
                return False
            remaining = 0.25
            if deadline is not None:
                remaining = min(remaining, deadline - self._clock())
                if remaining <= 0:
                    return False
            self.condition.wait(timeout=remaining)
        return True

    def poll(self, ticket: str, include_result: bool = True) -> dict:
        """The job's ``job_status`` payload."""
        job = self.job(ticket)
        with self.condition:
            return job.status_payload(include_result=include_result)

    def stream(
        self, ticket: str, timeout: Optional[float] = None
    ) -> Iterator[dict]:
        """Yield ``frontier_update`` payloads until the job is terminal.

        Replayed prefixes stream instantly, live updates as they are
        recorded.  The stream ends once the job is terminal and every update
        has been yielded, or when the service closes.
        """
        job = self.job(ticket)
        deadline = self._clock() + timeout if timeout is not None else None
        index = 0
        while True:
            with self.condition:
                if not self._wait_locked(
                    lambda: index < len(job.updates) or job.terminal, deadline
                ):
                    if self._closed:
                        return
                    raise TimeoutError(f"no update from {ticket} within {timeout} s")
                if index == len(job.updates):
                    return
                payload = job.updates[index]
            index += 1
            yield payload

    def wait(self, ticket: str, timeout: Optional[float] = None) -> dict:
        """Block until the job is terminal; returns its status payload."""
        job = self.job(ticket)
        deadline = self._clock() + timeout if timeout is not None else None
        with self.condition:
            if not self._wait_locked(lambda: job.terminal, deadline):
                if self._closed:
                    raise ServiceError(f"service closed while {ticket} was {job.state}")
                raise TimeoutError(f"{ticket} not finished within {timeout} s")
            return job.status_payload()

    def result(
        self, ticket: str, timeout: Optional[float] = None
    ) -> OptimizationResult:
        """Block for and return the typed :class:`OptimizationResult`."""
        status = self.wait(ticket, timeout=timeout)
        if status["state"] == JOB_FAILED:
            raise ServiceError(
                f"job {ticket} failed: {status.get('error') or 'unknown error'}"
            )
        payload = status.get("result")
        if payload is None:
            raise ServiceError(f"job {ticket} ended {status['state']} without a result")
        return OptimizationResult.from_dict(payload)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for every admitted job to finish; True when fully drained."""
        deadline = self._clock() + timeout if timeout is not None else None
        with self.condition:
            return self._wait_locked(
                lambda: all(job.terminal for job in self._jobs.values()), deadline
            )

    def _settle(self, ticket: str) -> dict:
        """``cancel``'s answer: the status once terminal, or after the bound."""
        job = self.job(ticket)
        with self.condition:
            self._wait_locked(
                lambda: job.terminal, self._clock() + CANCEL_SETTLE_SECONDS
            )
            return job.status_payload()
