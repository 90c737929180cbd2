"""A session summarizes each plan it shows once, and no payload changes.

:class:`~repro.api.session.PlannerSession` keeps the
:class:`~repro.api.schema.PlanSummary` of every plan of its own arena that it
has shown, keyed by the plan handle, and builds a summary only for a plan it
has not shown before.  The DP planners plan each run in a scratch arena whose
ids restart at 1, so their plans are summarized every time.  Each session
below tightens a bound twice, refines, and selects a plan; every streamed
update and the final result must equal the payloads built from
:func:`~repro.api.schema.frontier_summaries` afresh.  Two sessions of one
request share no summary.
"""

import dataclasses

import pytest

from repro import kernel
from repro.api import OptimizeRequest, open_session
from repro.api.schema import frontier_summaries
from repro.core.control import ChangeBounds, Continue, SelectPlan
from repro.costs.vector import CostVector

try:
    import numpy  # noqa: F401

    BACKENDS = ("python", "numpy")
except ImportError:  # pragma: no cover - depends on environment
    BACKENDS = ("python",)

PLANNERS = ("iama", "memoryless", "oneshot", "exhaustive")
WORKLOADS = (
    "gen:chain:5:0",
    "gen:star:5:0",
    "gen:cycle:5:0",
    "gen:clique:5:0",
    "tpch:q05",
    "template:ss_address_rollup:0",
)
#: What the analyst does after each frontier.
SCRIPT = ("tighten", "tighten", "continue", "select")


def _tightened(bounds, plans):
    """The bounds with the first metric cut to the frontier's median."""
    values = sorted(plan.cost[0] for plan in plans)
    tightened = list(bounds)
    tightened[0] = values[len(values) // 2]
    return CostVector(tightened)


def _steered_session(workload, algorithm):
    """Run the script; return the session and every update it streamed."""
    session = open_session(
        OptimizeRequest(workload=workload, algorithm=algorithm, scale="tiny", levels=3)
    )
    updates = []
    for step in SCRIPT:
        update = session.advance()
        updates.append(update)
        if not update.plans:
            action = Continue()
        elif step == "tighten":
            action = ChangeBounds(_tightened(session.bounds, update.plans))
        elif step == "select":
            action = SelectPlan(plan=update.plans[len(update.plans) // 2])
        else:
            action = Continue()
        session.apply(action)
        if session.finished:
            break
    return session, updates


def _summary_ids(session, updates):
    result = session.result()
    ids = {id(summary) for update in updates for summary in update.frontier}
    ids.update(id(summary) for summary in result.frontier)
    if result.selected_plan is not None:
        ids.add(id(result.selected_plan))
    return ids


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("algorithm", PLANNERS)
def test_payloads_match_fresh_summaries(algorithm, workload, backend):
    with kernel.use_backend(backend):
        session, updates = _steered_session(workload, algorithm)
    assert len(updates) >= 3
    for update in updates:
        fresh = dataclasses.replace(update, frontier=frontier_summaries(update.plans))
        assert update.to_dict() == fresh.to_dict()
    result = session.result()
    selected = session.selected_plan
    fresh = dataclasses.replace(
        result,
        frontier=frontier_summaries(updates[-1].plans),
        selected_plan=(
            frontier_summaries((selected,))[0] if selected is not None else None
        ),
    )
    assert result.to_dict() == fresh.to_dict()


def test_a_plan_shown_again_reuses_its_summary():
    """IAMA's plans live in the session's arena, so their summaries are kept."""
    _, updates = _steered_session("gen:clique:5:0", "iama")
    first_shown = {}
    repeats = []
    for update in updates:
        for plan, summary in zip(update.plans, update.frontier):
            if plan in first_shown:
                repeats.append(first_shown[plan] is summary)
            else:
                first_shown[plan] = summary
    assert repeats and all(repeats)


def test_two_sessions_of_one_request_share_no_summary():
    first = _summary_ids(*_steered_session("tpch:q05", "iama"))
    second = _summary_ids(*_steered_session("tpch:q05", "iama"))
    assert first and second
    assert not first & second

