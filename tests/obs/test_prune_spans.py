"""The ``pruning.prune_block`` span reports how its block was decided."""

from __future__ import annotations

from repro import flags
from repro.api import OptimizeRequest, open_session
from repro.obs import trace as obs_trace


def test_every_prune_block_span_reports_incumbents_and_uncovered():
    obs_trace.clear()
    try:
        with flags.overrides(tracing=True):
            open_session(
                OptimizeRequest(
                    workload="gen:clique:4:0", algorithm="iama", levels=4, scale="tiny"
                )
            ).run()
        spans = [
            span["attrs"]
            for span in obs_trace.snapshot()
            if span["name"] == "pruning.prune_block"
        ]
    finally:
        obs_trace.clear()
    assert spans
    for attrs in spans:
        assert 0 <= attrs["uncovered"] <= attrs["block_size"]
        assert attrs["incumbents"] >= 0
    # Re-pruned candidates meet the result plans that deferred them, and the
    # cover pass settles some of them without the in-order walk.
    assert any(
        attrs["incumbents"] > 0 and attrs["uncovered"] < attrs["block_size"]
        for attrs in spans
    )


def test_the_walk_visits_exactly_the_inserted_and_out_of_bounds_plans():
    obs_trace.clear()
    try:
        with flags.overrides(tracing=True):
            result = open_session(
                OptimizeRequest(
                    workload="gen:chain:5:0", algorithm="iama", levels=3, scale="tiny"
                )
            ).run()
        uncovered = sum(
            span["attrs"]["uncovered"]
            for span in obs_trace.snapshot()
            if span["name"] == "pruning.prune_block"
        )
    finally:
        obs_trace.clear()
    # A plan no incumbent covers is either inserted or above the bounds.
    decided = sum(
        invocation.details["plans_inserted"] + invocation.details["plans_out_of_bounds"]
        for invocation in result.invocations
    )
    assert uncovered == decided > 0
