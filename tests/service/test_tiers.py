"""One verb contract for both serving tiers.

The in-process :class:`PlanningService` and the sharded
:class:`WorkerPoolService` answer the same verbs from the same job table, so
one script must see the same states, payload keys and exception types on
either.  A cancel racing completion must settle on both.
"""

from __future__ import annotations

import time

import pytest

from repro.api import OptimizeRequest, open_session
from repro.service import (
    PlanningService,
    ServiceError,
    UnknownTicketError,
    WorkerPoolService,
    job_status_payload,
    steer_bounds_payload,
    steer_select_payload,
)

TIERS = [
    pytest.param(lambda: PlanningService(workers=1), id="in_process"),
    pytest.param(
        lambda: WorkerPoolService(workers=1), id="pool", marks=pytest.mark.slow
    ),
]

QUICK = OptimizeRequest(workload="gen:chain:4:0", levels=3, scale="tiny")
#: About a thousand slices of tens of milliseconds each: still running when
#: the script is done with it, and each cancel lands within one slice.
LONG = OptimizeRequest(workload="gen:clique:6:0", levels=1000, scale="tiny")
#: One-level requests, each cancelled as soon as it is submitted.
RACES = [
    OptimizeRequest(workload=f"gen:{topology}:4:{seed}", levels=1, scale="tiny")
    for topology in ("chain", "star", "cycle", "clique")
    for seed in range(5)
]

STATUS_KEYS = set(job_status_payload("job", "queued", workload="w", algorithm="a"))


def _frontier_costs(result):
    return [tuple(summary.cost) for summary in result.frontier]


@pytest.fixture(params=TIERS)
def service(request):
    with request.param() as service:
        yield service


def test_one_script_sees_the_same_verbs_on_both_tiers(service):
    with pytest.raises(UnknownTicketError):
        service.poll("job-999999")
    with pytest.raises(KeyError):
        service.submit(QUICK.with_overrides(algorithm="nope"))

    running = service.submit(LONG)
    first = next(iter(service.stream(running, timeout=60.0)))
    status = service.poll(running)
    assert status["state"] == "running"
    assert set(status) == STATUS_KEYS
    with pytest.raises(ValueError):
        service.steer(running, steer_bounds_payload([1.0]))  # three metrics
    with pytest.raises(TimeoutError):
        service.wait(running, timeout=0.01)
    assert service.cancel(running)["state"] == "cancelled"

    done = service.submit(QUICK)
    status = service.wait(done, timeout=60.0)
    assert status["state"] == "finished"
    assert set(status) == STATUS_KEYS
    with pytest.raises(RuntimeError):
        service.steer(done, steer_select_payload(0))
    updates = list(service.stream(done, timeout=60.0))
    assert len(updates) == QUICK.levels
    assert all(set(update) == set(first) for update in updates)
    serial = open_session(QUICK).run()
    assert updates[-1]["frontier"] == serial.to_dict()["frontier"]

    service.close()
    with pytest.raises(ServiceError):
        service.submit(QUICK)


def test_cancel_racing_completion_settles(service):
    for request in RACES:
        ticket = service.submit(request)
        started = time.monotonic()
        status = service.cancel(ticket)
        assert time.monotonic() - started < 10.0
        assert status["state"] in ("cancelled", "finished"), request.workload
        if status["state"] == "finished":
            result = service.result(ticket, timeout=1.0)
            serial = open_session(request).run()
            assert _frontier_costs(result) == _frontier_costs(serial), request.workload
