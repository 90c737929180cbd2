"""A budget-parked session survives a pickle round trip.

A planner session is a plain picklable value, and the copy a round trip
gives is complete and independent of the original: resumed under a bigger
budget it must finish bit-identical to one uninterrupted serial session,
and the original must be left as it was.
"""

import pickle

import pytest

from repro.api import Budget, OptimizeRequest, open_session
from repro.api.schema import FINISH_INVOCATION_CAP
from repro.core.control import ChangeBounds
from repro.costs.vector import CostVector

TINY = dict(levels=3, scale="tiny")


def _frontier_costs(result):
    return [tuple(summary.cost) for summary in result.frontier]


def _parked(request):
    """The session of ``request`` stopped by a one-invocation cap."""
    session = open_session(request.with_overrides(budget=Budget(max_invocations=1)))
    session.run()
    assert session.resumable
    return session


@pytest.mark.parametrize("topology", ("chain", "star", "cycle", "clique"))
def test_resumed_copy_matches_the_serial_run(topology):
    request = OptimizeRequest(workload=f"gen:{topology}:4:0", **TINY)
    clone = pickle.loads(pickle.dumps(_parked(request)))
    clone.resume(Budget())
    resumed = clone.run()
    serial = open_session(request).run()
    assert _frontier_costs(resumed) == _frontier_costs(serial)
    assert resumed.finish_reason == serial.finish_reason
    assert resumed.plans_generated == serial.plans_generated
    assert len(resumed.invocations) == len(serial.invocations)


def test_the_copy_reports_the_parked_state():
    session = _parked(OptimizeRequest(workload="gen:star:4:1", **TINY))
    clone = pickle.loads(pickle.dumps(session))
    assert clone.finish_reason == FINISH_INVOCATION_CAP
    assert clone.resumable
    assert clone.iteration == session.iteration
    assert _frontier_costs(clone.result()) == _frontier_costs(session.result())
    assert clone.driver.factory.arena.stats() == session.driver.factory.arena.stats()


def test_resuming_the_copy_leaves_the_original_parked():
    session = _parked(OptimizeRequest(workload="gen:clique:4:1", **TINY))
    before = session.driver.factory.arena.stats()
    clone = pickle.loads(pickle.dumps(session))
    clone.resume(Budget())
    clone.run()
    assert clone.driver.factory.arena is not session.driver.factory.arena
    assert clone.driver.factory.arena.stats().plans_total > before.plans_total
    assert session.resumable
    assert session.driver.factory.arena.stats() == before


def test_a_steered_copy_continues_bit_identical():
    """The invocation history that decides ``IsFresh`` travels with the
    session: a copy taken after a full-mode invocation steers on exactly
    like the original."""
    request = OptimizeRequest(workload="gen:clique:4:2", levels=3, scale="smoke")
    session = open_session(request)
    session.step()
    update = session.step()
    index = 0
    median = sorted(plan.cost[index] for plan in update.plans)[len(update.plans) // 2]
    tightened = list(session.bounds)
    tightened[index] = median
    session.step(ChangeBounds(CostVector(tightened)))
    session.step()  # the tighter bounds at resolution 0 run in Δ-mode
    # Refining them runs in full mode, which builds the plans' box masks.
    history = session.driver.optimizer._coverage
    assert not history.delta_mode_allowed(session.bounds, session.resolution)
    session.advance()
    assert history._masks
    clone = pickle.loads(pickle.dumps(session))
    relaxed = ChangeBounds(CostVector.infinite(len(tightened)))
    for copy in (session, clone):
        copy.apply(relaxed)
        while not copy.finished:
            copy.step()
    original, copied = session.driver.factory.arena, clone.driver.factory.arena
    assert copied.stats() == original.stats()
    assert [copied.cost_row(i) for i in range(1, len(copied) + 1)] == [
        original.cost_row(i) for i in range(1, len(original) + 1)
    ]
    assert _frontier_costs(clone.result()) == _frontier_costs(session.result())
