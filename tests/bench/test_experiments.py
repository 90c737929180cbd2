"""Tests for :mod:`repro.bench.experiments` on a tiny configuration."""

import pytest

from repro import flags
from repro.bench.config import ExperimentConfig
from repro.bench.experiments import (
    ablation_freshness,
    ablation_metric_count,
    ablation_result_set_growth,
    anytime_quality_experiment,
    interactive_refinement_experiment,
    speedup_summary,
)
from repro.bench.registry import get_spec
from repro.bench.runner import AlgorithmName


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
def figure3(tiny_config):
    return get_spec("figure3").run(tiny_config)


class TestFigureSweeps:
    def test_figure3_covers_all_groups_levels_and_algorithms(self, figure3, tiny_config):
        table_counts = {row["table_count"] for row in figure3.rows}
        assert table_counts == {2, 3}
        levels = {row["resolution_levels"] for row in figure3.rows}
        assert levels == set(tiny_config.resolution_level_settings)
        algorithms = {row["algorithm"] for row in figure3.rows}
        assert algorithms == {a.label for a in AlgorithmName}

    def test_figure3_rows_have_positive_times(self, figure3):
        for row in figure3.rows:
            assert row["avg_invocation_seconds"] > 0
            assert row["max_invocation_seconds"] >= row["avg_invocation_seconds"] - 1e-12

    def test_result_filtering_helpers(self, figure3):
        one_level = figure3.filtered(resolution_levels=1)
        assert one_level
        assert all(row["resolution_levels"] == 1 for row in one_level)
        column = figure3.column("avg_invocation_seconds", resolution_levels=1)
        assert len(column) == len(one_level)

    def test_figure5_reports_only_largest_level_setting(self, tiny_config):
        result = get_spec("figure5").run(tiny_config)
        assert {row["resolution_levels"] for row in result.rows} == {
            max(tiny_config.resolution_level_settings)
        }

    def test_speedup_summary_produces_ratios(self, figure3, tiny_config):
        result_fig5 = get_spec("figure5").run(tiny_config)
        summary = speedup_summary(figure3, figure3, result_fig5)
        assert summary.rows
        for row in summary.rows:
            assert row["max_speedup"] >= row["min_speedup"] > 0
            assert row["baseline"] in {
                AlgorithmName.MEMORYLESS.label,
                AlgorithmName.ONE_SHOT.label,
            }


class TestIllustrations:
    def test_anytime_quality_experiment_row_families(self, tiny_config):
        result = anytime_quality_experiment(tiny_config, levels=2)
        kinds = {row["kind"] for row in result.rows}
        assert kinds == {"quality", "per_invocation"}
        quality_algorithms = {
            row["algorithm"] for row in result.rows if row["kind"] == "quality"
        }
        assert AlgorithmName.INCREMENTAL_ANYTIME.label in quality_algorithms
        assert AlgorithmName.ONE_SHOT.label in quality_algorithms
        iama_quality = [
            row for row in result.rows
            if row["kind"] == "quality"
            and row["algorithm"] == AlgorithmName.INCREMENTAL_ANYTIME.label
        ]
        elapsed = [row["elapsed_seconds"] for row in iama_quality]
        assert elapsed == sorted(elapsed)

    def test_interactive_refinement_experiment(self, tiny_config):
        result = interactive_refinement_experiment(tiny_config, levels=3, iterations=4)
        rows = result.rows
        assert len(rows) == 4
        assert [row["iteration"] for row in rows] == [1, 2, 3, 4]
        assert all(row["invocation_seconds"] >= 0 for row in rows)
        # The user tightens the time bound after every second invocation, and
        # each tightening restarts the refinement under the new bound.
        assert [row["action"] for row in rows] == [
            "Continue", "ChangeBounds", "Continue", "ChangeBounds",
        ]
        assert [row["resolution"] for row in rows] == [0, 1, 0, 1]
        assert rows[2]["time_bound"] < rows[1]["time_bound"] == float("inf")


class TestAblations:
    def test_ablation_freshness_generates_identical_plans(self, tiny_config):
        result = ablation_freshness(tiny_config, levels=2)
        by_flag = {row["delta_sets"]: row for row in result.rows}
        assert set(by_flag) == {True, False}
        assert by_flag[True]["plans_generated"] == by_flag[False]["plans_generated"]
        assert by_flag[True]["pairs_enumerated"] <= by_flag[False]["pairs_enumerated"]

    def test_ablation_freshness_restores_the_delta_sets_flag(self, tiny_config):
        with flags.overrides(delta_sets=True):
            ablation_freshness(tiny_config, levels=2)
            assert flags.enabled("delta_sets")

    def test_ablation_result_set_growth(self, tiny_config):
        result = ablation_result_set_growth(tiny_config, levels=2)
        row = result.rows[0]
        assert row["iama_result_plans"] >= row["minimal_result_plans"]
        assert row["result_plan_inflation"] >= 1.0

    def test_ablation_metric_count_grows_with_metrics(self, tiny_config):
        result = ablation_metric_count(tiny_config, metric_counts=(2, 3), levels=2)
        assert [row["metric_count"] for row in result.rows] == [2, 3]
        for row in result.rows:
            assert row["frontier_size"] > 0
