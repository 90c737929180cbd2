"""Tests for requests, budgets, and workload-spec resolution."""

import json
import math

import pytest

from repro.api.request import (
    Budget,
    OptimizeRequest,
    metric_set_from_names,
    parse_generated_spec,
    resolve_request,
    resolve_workload,
)
from repro.costs.vector import CostVector
from repro.workloads.generator import generated_workload


class TestWorkloadSpecs:
    def test_tpch_block_by_all_spellings(self):
        for spec in ("tpch_q03", "q03", "tpch:q03"):
            resolved = resolve_workload(spec)
            assert resolved.query.name == "tpch_q03"

    def test_generated_spec_matches_the_generator(self):
        resolved = resolve_workload("gen:star:4:42")
        reference = generated_workload(42, 4, "star")
        # The resolved query is bit-identical to a direct generator call.
        assert resolved.query.table_count == 4
        assert resolved.query.name == reference.query.name
        assert resolved.query.tables == reference.query.tables
        for table in sorted(resolved.query.tables):
            assert (
                resolved.statistics.row_count(table)
                == reference.statistics.row_count(table)
            )

    def test_parse_generated_spec(self):
        assert parse_generated_spec("gen:star:6:42") == ("star", 6, 42)

    @pytest.mark.parametrize(
        "spec",
        ["gen:star:6", "gen:star:6:42:9", "gen:mesh:3:1", "gen:star:x:1", "gen:star:0:1"],
    )
    def test_malformed_generated_specs_fail(self, spec):
        with pytest.raises(ValueError):
            resolve_workload(spec)

    def test_unknown_block_fails_with_hint(self):
        with pytest.raises(ValueError, match="unknown query"):
            resolve_workload("q99")


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            Budget(deadline_seconds=-1)
        with pytest.raises(ValueError):
            Budget(max_invocations=0)
        with pytest.raises(ValueError):
            Budget(target_alpha=0.5)
        assert Budget().unlimited
        assert not Budget(max_invocations=3).unlimited

    def test_round_trip(self):
        budget = Budget(deadline_seconds=1.5, max_invocations=3, target_alpha=1.01)
        assert Budget.from_dict(json.loads(json.dumps(budget.to_dict()))) == budget
        assert Budget.from_dict(Budget().to_dict()) == Budget()


class TestOptimizeRequest:
    def test_defaults_and_round_trip(self):
        request = OptimizeRequest(workload="tpch:q03")
        restored = OptimizeRequest.from_dict(
            json.loads(json.dumps(request.to_dict()))
        )
        assert restored == request

    def test_from_dict_defaults_every_optional_field(self):
        minimal = {
            "schema_version": 1,
            "kind": "optimize_request",
            "workload": "tpch:q03",
        }
        assert OptimizeRequest.from_dict(minimal) == OptimizeRequest(workload="tpch:q03")

    def test_full_round_trip_with_bounds_and_budget(self):
        request = OptimizeRequest(
            workload="gen:star:3:7",
            algorithm="memoryless",
            scale="tiny",
            levels=3,
            precision="fine",
            metrics=("execution_time", "monetary_fees"),
            bounds=CostVector([1000.0, math.inf]),
            budget=Budget(max_invocations=2),
            objective="execution_time",
        )
        restored = OptimizeRequest.from_dict(
            json.loads(json.dumps(request.to_dict()))
        )
        assert restored == request

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizeRequest(workload="q03", levels=0)
        with pytest.raises(ValueError):
            OptimizeRequest(workload="q03", precision="ultra")
        with pytest.raises(ValueError):
            OptimizeRequest(workload="q03", scale="huge")
        with pytest.raises(ValueError):
            OptimizeRequest(workload="q03", metrics=("no_such_metric",))

    def test_metric_selection(self):
        metric_set = metric_set_from_names(("execution_time", "energy"))
        assert metric_set.names == ["execution_time", "energy"]
        with pytest.raises(ValueError, match="unknown metrics"):
            metric_set_from_names(("bogus",))


class TestResolveRequest:
    def test_resolves_workload_metrics_and_schedule(self):
        request = OptimizeRequest(
            workload="gen:chain:3:0",
            scale="tiny",
            levels=3,
            metrics=("execution_time", "monetary_fees"),
        )
        resolved = resolve_request(request)
        assert resolved.query.table_count == 3
        assert resolved.metric_set.names == ["execution_time", "monetary_fees"]
        assert resolved.schedule.levels == 3
        assert resolved.bounds == resolved.metric_set.unbounded_vector()
        assert resolved.factory.metric_set is resolved.metric_set

    def test_bounds_must_match_metric_dimensions(self):
        request = OptimizeRequest(
            workload="gen:chain:2:0",
            scale="tiny",
            metrics=("execution_time", "monetary_fees"),
            bounds=CostVector([1.0, 2.0, 3.0]),
        )
        with pytest.raises(ValueError, match="components"):
            resolve_request(request)
