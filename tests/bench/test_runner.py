"""Unit tests for :mod:`repro.bench.runner`."""

import gc

import pytest

from repro.api.session import PlannerSession
from repro.bench.config import MODERATE_PRECISION, ExperimentConfig
from repro.bench.runner import (
    AlgorithmName,
    build_factory,
    build_schedule,
    run_series,
)
from repro.workloads.tpch import tpch_queries


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig(
        name="tiny",
        parallelism_levels=(1,),
        sampling_rates=(0.5,),
        join_algorithms=("hash_join",),
        max_tables=3,
        max_queries_per_group=1,
        resolution_level_settings=(1, 2),
    )


@pytest.fixture(scope="module")
def two_table_block():
    return tpch_queries(max_tables=2)[0]


class TestBuilders:
    def test_build_factory_uses_config_registry(self, tiny_config, two_table_block):
        factory = build_factory(two_table_block, tiny_config)
        assert factory.operators.parallelism_levels == (1,)
        assert factory.metric_set.dimensions == 3

    def test_build_schedule_uses_precision_setting(self):
        schedule = build_schedule(5, MODERATE_PRECISION)
        assert schedule.levels == 5
        assert schedule.target_precision == pytest.approx(1.01)


class TestRunSeries:
    def test_incremental_series_has_one_invocation_per_level(self, tiny_config, two_table_block):
        series = run_series(
            AlgorithmName.INCREMENTAL_ANYTIME, two_table_block, tiny_config, 2, MODERATE_PRECISION
        )
        assert len(series.durations_seconds) == 2
        assert series.table_count == 2
        assert series.frontier_size > 0

    def test_memoryless_series_has_one_invocation_per_level(self, tiny_config, two_table_block):
        series = run_series(
            AlgorithmName.MEMORYLESS, two_table_block, tiny_config, 2, MODERATE_PRECISION
        )
        assert len(series.durations_seconds) == 2

    def test_one_shot_series_has_a_single_invocation(self, tiny_config, two_table_block):
        series = run_series(
            AlgorithmName.ONE_SHOT, two_table_block, tiny_config, 2, MODERATE_PRECISION
        )
        assert len(series.durations_seconds) == 1

    def test_series_statistics(self, tiny_config, two_table_block):
        series = run_series(
            AlgorithmName.INCREMENTAL_ANYTIME, two_table_block, tiny_config, 2, MODERATE_PRECISION
        )
        assert series.average_seconds == pytest.approx(
            sum(series.durations_seconds) / len(series.durations_seconds)
        )
        assert series.maximum_seconds == max(series.durations_seconds)
        assert series.total_seconds == pytest.approx(sum(series.durations_seconds))

    def test_algorithm_labels_are_human_readable(self):
        assert AlgorithmName.INCREMENTAL_ANYTIME.label == "Incremental anytime"
        assert AlgorithmName.MEMORYLESS.label == "Memoryless"
        assert AlgorithmName.ONE_SHOT.label == "One-shot"

    def test_memoryless_regenerates_more_plans_than_incremental(self, tiny_config, two_table_block):
        incremental = run_series(
            AlgorithmName.INCREMENTAL_ANYTIME, two_table_block, tiny_config, 2, MODERATE_PRECISION
        )
        memoryless = run_series(
            AlgorithmName.MEMORYLESS, two_table_block, tiny_config, 2, MODERATE_PRECISION
        )
        assert memoryless.plans_generated > incremental.plans_generated


class TestCollectorPause:
    """A series runs with the cyclic collector paused, as :mod:`timeit` does,
    and leaves the collector as it found it."""

    @pytest.fixture
    def collector_states(self, monkeypatch):
        states = []
        original = PlannerSession.run

        def run(session, *args, **kwargs):
            states.append(gc.isenabled())
            return original(session, *args, **kwargs)

        monkeypatch.setattr(PlannerSession, "run", run)
        return states

    def test_collector_is_paused_during_the_series_and_restored(
        self, tiny_config, two_table_block, collector_states
    ):
        assert gc.isenabled()
        run_series(
            AlgorithmName.INCREMENTAL_ANYTIME, two_table_block, tiny_config, 2, MODERATE_PRECISION
        )
        assert collector_states
        assert not any(collector_states)
        assert gc.isenabled()

    def test_collector_paused_by_the_caller_stays_paused(
        self, tiny_config, two_table_block, collector_states
    ):
        gc.disable()
        try:
            run_series(
                AlgorithmName.MEMORYLESS, two_table_block, tiny_config, 2, MODERATE_PRECISION
            )
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert collector_states
        assert not any(collector_states)

    def test_collector_is_restored_when_the_series_raises(
        self, tiny_config, two_table_block, monkeypatch
    ):
        def fail(session, *args, **kwargs):
            raise RuntimeError("planner failed")

        monkeypatch.setattr(PlannerSession, "run", fail)
        with pytest.raises(RuntimeError, match="planner failed"):
            run_series(
                AlgorithmName.ONE_SHOT, two_table_block, tiny_config, 2, MODERATE_PRECISION
            )
        assert gc.isenabled()

