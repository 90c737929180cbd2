"""Regression tests: infinite cost components through the arena and the schema.

Plans whose first cost component is ``+inf`` are legal (the plan index parks
them in a dedicated sentinel bucket above every finite bucket) and unbounded
cost bounds are vectors of infinities, yet JSON has no infinity literal --
:mod:`repro.api.schema` encodes them as the string ``"inf"``.  These tests pin
the whole chain for *arena* cost rows: an arena row containing ``inf`` must
survive CostVector round-trips, plan-summary serialization, real ``json``
dumps/loads, pruning at every resolution of a schedule, and the full
``OptimizationResult`` payload of a session run under unbounded bounds.
"""

import json
import math

import pytest

from repro import kernel
from repro.api import OptimizationResult, OptimizeRequest, open_session
from repro.api.schema import (
    PlanSummary,
    SchemaError,
    cost_from_jsonable,
    cost_to_jsonable,
    decode_float,
    encode_float,
)
from repro.core.index import INFINITE_BUCKET, PlanIndex
from repro.core.pruning import PruneOutcome, prune_all_ids
from repro.core.resolution import ResolutionSchedule
from repro.costs.vector import CostVector
from repro.plans.arena import PlanArena
from repro.plans.operators import ScanOperator

try:
    import numpy  # noqa: F401

    BACKENDS = ("python", "numpy")
except ImportError:  # pragma: no cover - depends on environment
    BACKENDS = ("python",)

INF = math.inf


def inf_arena():
    """An arena holding one finite and one infinite-first-cost scan plan."""
    arena = PlanArena(3)
    finite = arena.allocate_scan(
        "t", ScanOperator("seq_scan"), CostVector([5.0, 1.0, 0.0])
    )
    infinite = arena.allocate_scan(
        "t", ScanOperator("seq_scan"), CostVector([INF, 1.0, 0.0])
    )
    return arena, finite, infinite


class TestSchemaEncoding:
    def test_arena_cost_row_round_trips_through_json(self):
        arena, _, infinite = inf_arena()
        cost = arena.plan(infinite).cost
        payload = json.loads(json.dumps(cost_to_jsonable(cost)))
        assert payload[0] == "inf"
        assert cost_from_jsonable(payload) == cost

    def test_plan_summary_round_trips_inf_cost(self):
        arena, _, infinite = inf_arena()
        summary = PlanSummary.from_plan(arena.plan(infinite))
        restored = PlanSummary.from_dict(
            json.loads(json.dumps(summary.to_dict()))
        )
        assert restored == summary
        assert math.isinf(restored.cost[0])

    def test_negative_infinity_is_sign_aware(self):
        assert encode_float(-INF) == "-inf"
        assert decode_float("-inf") == -INF
        assert decode_float("inf") == INF
        with pytest.raises(SchemaError):
            decode_float("infinity")


class TestIndexSentinelBucket:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_infinite_plan_lands_in_sentinel_bucket(self, backend):
        with kernel.use_backend(backend):
            arena, finite, infinite = inf_arena()
            index = PlanIndex()
            index.insert_id(finite, 0, arena)
            index.insert_id(infinite, 0, arena)
            unbounded = CostVector([INF, INF, INF])
            assert index.retrieve_ids(unbounded, 0) == [finite, infinite]
            # Finite bounds exclude the sentinel plan but keep the finite one.
            assert index.retrieve_ids(CostVector([10.0, 10.0, 10.0]), 0) == [finite]
            assert index._bucket_of(arena.cost_row(infinite)) == INFINITE_BUCKET

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pruning_inf_rows_at_every_schedule_resolution(self, backend):
        """An inf-cost arena row survives Prune across a whole schedule.

        Under unbounded bounds the sentinel plan must be INSERTED (nothing
        dominates it; the bounds are infinite); under finite bounds it must be
        parked OUT_OF_BOUNDS -- at every resolution, with the alpha-scaled
        row (``alpha * inf == inf``) never tripping the kernel comparisons.
        """
        schedule = ResolutionSchedule(levels=3)
        with kernel.use_backend(backend):
            for resolution in schedule.resolutions():
                alpha = schedule.alpha(resolution)
                # Alone (no finite plan that could approximate it), the
                # sentinel plan must be inserted under unbounded bounds.
                arena, _, infinite = inf_arena()
                results, candidates = PlanIndex(), PlanIndex()
                outcomes = prune_all_ids(
                    results,
                    candidates,
                    CostVector([INF, INF, INF]),
                    resolution,
                    alpha,
                    schedule.max_resolution,
                    arena,
                    [infinite],
                )
                assert outcomes == [PruneOutcome.INSERTED]
                assert results.retrieve_ids(CostVector([INF] * 3), resolution) == [
                    infinite
                ]

                # With a finite plan inserted first, the finite plan
                # approximates the alpha-scaled infinite row (alpha * inf is
                # still inf), so the sentinel plan is deferred -- or
                # discarded once the maximal resolution is reached.
                arena, finite, infinite = inf_arena()
                results, candidates = PlanIndex(), PlanIndex()
                outcomes = prune_all_ids(
                    results,
                    candidates,
                    CostVector([INF, INF, INF]),
                    resolution,
                    alpha,
                    schedule.max_resolution,
                    arena,
                    [finite, infinite],
                )
                expected = (
                    PruneOutcome.DEFERRED_TO_HIGHER_RESOLUTION
                    if resolution < schedule.max_resolution
                    else PruneOutcome.DISCARDED
                )
                assert outcomes == [PruneOutcome.INSERTED, expected]

                # Under finite bounds the sentinel plan is parked as an
                # out-of-bounds candidate at the current resolution.
                arena, finite, infinite = inf_arena()
                results, candidates = PlanIndex(), PlanIndex()
                outcomes = prune_all_ids(
                    results,
                    candidates,
                    CostVector([100.0, 100.0, 100.0]),
                    resolution,
                    alpha,
                    schedule.max_resolution,
                    arena,
                    [infinite, finite],
                )
                assert outcomes == [
                    PruneOutcome.OUT_OF_BOUNDS,
                    PruneOutcome.INSERTED,
                ]
                assert candidates.retrieve_ids(CostVector([INF] * 3), resolution) == [
                    infinite
                ]


class TestSessionPayloadWithUnboundedBounds:
    def test_optimization_result_round_trips_inf_bounds(self):
        result = open_session(
            OptimizeRequest(
                workload="gen:chain:3:0", algorithm="iama", scale="tiny", levels=2
            )
        ).run()
        payload = result.to_dict()
        # The default bounds are unbounded: every invocation serializes them
        # with the inf token, through a real JSON round trip.
        encoded = json.dumps(payload)
        assert '"inf"' in encoded
        restored = OptimizationResult.from_dict(json.loads(encoded))
        assert restored.to_dict() == payload
        assert all(
            math.isinf(component)
            for invocation in restored.invocations
            for component in invocation.bounds
        )
