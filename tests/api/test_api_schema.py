"""Round-trip and validation tests for the versioned API schema."""

import json
import math

import pytest

from repro.api.schema import (
    SCHEMA_VERSION,
    FrontierUpdate,
    InvocationSummary,
    OptimizationResult,
    PlanSummary,
    SchemaError,
    cost_from_jsonable,
    cost_to_jsonable,
    frontier_summaries,
)
from repro.costs.vector import CostVector
from tests.conftest import build_chain_query, build_factory


def make_plan():
    query = build_chain_query(("customers", "orders"))
    factory = build_factory(query)
    scans = {t: factory.scan_plans(t)[0] for t in ("customers", "orders")}
    return factory.join_plan(
        scans["customers"], scans["orders"], factory.join_operators()[0]
    )


class TestCostEncoding:
    def test_round_trips_finite_vectors(self):
        cost = CostVector([1.5, 0.0, 2.384e-05])
        assert cost_from_jsonable(cost_to_jsonable(cost)) == cost

    def test_infinity_is_encoded_as_string(self):
        bounds = CostVector([math.inf, 3.0])
        encoded = cost_to_jsonable(bounds)
        assert encoded == ["inf", 3.0]
        # The encoding must survive a strict JSON round trip.
        assert cost_from_jsonable(json.loads(json.dumps(encoded))) == bounds

    def test_rejects_garbage(self):
        with pytest.raises(SchemaError):
            cost_from_jsonable([])
        with pytest.raises(SchemaError):
            cost_from_jsonable(["not-a-number"])

    def test_negative_infinity_never_flips_sign(self):
        # CostVector forbids negative components, so a decoded "-inf" must
        # surface as that validation error -- never as a silent +inf bound.
        from repro.api.schema import decode_float, encode_float

        assert encode_float(float("-inf")) == "-inf"
        assert decode_float("-inf") == float("-inf")
        with pytest.raises(ValueError, match="non-negative"):
            cost_from_jsonable(["-inf", 1.0])


class TestPlanSummary:
    def test_from_plan_and_round_trip(self):
        plan = make_plan()
        summary = PlanSummary.from_plan(plan)
        assert summary.tables == tuple(sorted(plan.tables))
        assert summary.cost == plan.cost
        assert summary.render == plan.render()
        restored = PlanSummary.from_dict(json.loads(json.dumps(summary.to_dict())))
        assert restored == summary

    def test_rejects_wrong_kind_and_version(self):
        plan = make_plan()
        payload = PlanSummary.from_plan(plan).to_dict()
        with pytest.raises(SchemaError, match="kind"):
            InvocationSummary.from_dict(payload)
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaError, match="schema_version"):
            PlanSummary.from_dict(payload)


class TestInvocationSummary:
    def test_round_trip_preserves_details(self):
        summary = InvocationSummary(
            index=3,
            resolution=1,
            alpha=1.035,
            bounds=CostVector([math.inf, math.inf]),
            duration_seconds=0.0123,
            frontier_size=7,
            details={"pairs_enumerated": 12, "delta_mode": True},
        )
        restored = InvocationSummary.from_dict(
            json.loads(json.dumps(summary.to_dict()))
        )
        assert restored == summary


class TestFrontierUpdate:
    def test_live_plans_are_excluded_from_equality_and_json(self):
        plan = make_plan()
        summary = InvocationSummary(
            index=1,
            resolution=0,
            alpha=1.05,
            bounds=CostVector([math.inf] * len(plan.cost)),
            duration_seconds=0.001,
            frontier_size=1,
        )
        update = FrontierUpdate(
            algorithm="iama",
            invocation=summary,
            frontier=frontier_summaries([plan]),
            elapsed_seconds=0.002,
            plans=(plan,),
        )
        payload = json.loads(json.dumps(update.to_dict()))
        restored = FrontierUpdate.from_dict(payload)
        assert restored == update
        assert restored.plans == ()


class TestOptimizationResult:
    def test_full_round_trip(self):
        plan = make_plan()
        summary = frontier_summaries([plan])
        invocation = InvocationSummary(
            index=1,
            resolution=0,
            alpha=1.01,
            bounds=CostVector([math.inf] * len(plan.cost)),
            duration_seconds=0.5,
            frontier_size=1,
            details={"plans_generated": 10},
        )
        result = OptimizationResult(
            algorithm="oneshot",
            query_name="shop_chain",
            table_count=2,
            metric_names=("execution_time", "reserved_cores", "precision_loss"),
            invocations=(invocation,),
            frontier=summary,
            finish_reason="exhausted",
            total_seconds=0.5,
            plans_generated=10,
            selected_plan=summary[0],
        )
        payload = json.loads(json.dumps(result.to_dict()))
        restored = OptimizationResult.from_dict(payload)
        assert restored == result
        assert restored.to_dict() == result.to_dict()

    def test_payload_flows_unchanged_through_the_json_store(self, tmp_path):
        from repro.api import OptimizeRequest, open_session
        from repro.service.frontier_cache import JsonStore

        result = open_session(
            OptimizeRequest(workload="gen:chain:2:0", scale="tiny", levels=2)
        ).run()
        store = JsonStore(tmp_path)
        store.store("api_smoke/result.json", result.to_dict())
        loaded = store.load("api_smoke/result.json")
        assert OptimizationResult.from_dict(loaded) == result

    def test_payload_flows_unchanged_through_the_json_exporter(self, tmp_path):
        from repro.api import OptimizeRequest, open_session
        from repro.bench.experiments import ExperimentResult
        from repro.bench.export import load_json, write_json

        result = open_session(
            OptimizeRequest(workload="gen:chain:2:1", scale="tiny", levels=2)
        ).run()
        rows = ExperimentResult(
            name="api_export", description="", rows=[result.to_dict()]
        )
        loaded = load_json(write_json(rows, tmp_path / "api_export.json"))
        assert OptimizationResult.from_dict(loaded.rows[0]) == result

    def test_rejects_unknown_finish_reason(self):
        plan = make_plan()
        result = OptimizationResult(
            algorithm="iama",
            query_name="q",
            table_count=2,
            metric_names=("execution_time",),
            invocations=(),
            frontier=frontier_summaries([plan]),
            finish_reason="exhausted",
            total_seconds=0.0,
            plans_generated=0,
        )
        payload = result.to_dict()
        payload["finish_reason"] = "crashed"
        with pytest.raises(SchemaError, match="finish_reason"):
            OptimizationResult.from_dict(payload)
