"""The ``pruning.prune_block`` span reports how its block was decided."""

from __future__ import annotations

from repro import flags
from repro.api import OptimizeRequest, open_session
from repro.obs import trace as obs_trace


def test_every_prune_block_span_splits_into_cached_and_searched():
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
        assert attrs["cached"] + attrs["searched"] == attrs["block_size"]
    # Re-pruned candidates are settled by their cached witnesses; fresh
    # plans have none and are searched.
    assert sum(attrs["cached"] for attrs in spans) > 0
    assert sum(attrs["searched"] for attrs in spans) > 0
