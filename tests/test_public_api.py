"""Smoke tests of the top-level public API (the README quickstart path)."""

import doctest
import importlib

import pytest

import repro
from repro import (
    CardinalityEstimator,
    MultiObjectiveCostModel,
    PlanFactory,
    ResolutionSchedule,
    default_operator_registry,
    open_planner,
    paper_metric_set,
)
from repro.workloads import tpch_queries, tpch_statistics


class TestPublicApi:
    def test_version_is_exposed(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    @pytest.mark.parametrize(
        "package", ("repro.costs", "repro.interactive", "repro.plans")
    )
    def test_subpackage_exports_resolve(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None

    def test_package_quickstart_runs(self):
        outcome = doctest.testmod(repro)
        assert outcome.failed == 0
        assert outcome.attempted > 0

    def test_quickstart_flow(self):
        query = min(tpch_queries(), key=lambda q: q.table_count)
        statistics = tpch_statistics()
        metric_set = paper_metric_set()
        factory = PlanFactory(
            CardinalityEstimator(statistics, query.join_graph),
            MultiObjectiveCostModel(metric_set),
            default_operator_registry(),
        )
        session = open_planner(
            "iama", query, factory, ResolutionSchedule(levels=3)
        )
        updates = list(session.updates())
        assert len(updates) == 3
        assert len(updates[-1].frontier) >= len(updates[0].frontier) > 0

    def test_oneshot_baseline_from_public_api(self):
        query = min(tpch_queries(), key=lambda q: q.table_count)
        factory = PlanFactory(
            CardinalityEstimator(tpch_statistics(), query.join_graph),
            MultiObjectiveCostModel(paper_metric_set()),
            default_operator_registry(),
        )
        result = open_planner(
            "oneshot", query, factory, ResolutionSchedule(levels=3)
        ).run()
        assert len(result.invocations) == 1
        assert result.frontier_size > 0
