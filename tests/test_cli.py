"""Tests for the command-line interface (:mod:`repro.cli`)."""

import json

import pytest

from repro import cli
from repro.api import OptimizationResult


class TestWorkloadCommand:
    def test_lists_all_groups(self, capsys):
        assert cli.main(["workload"]) == 0
        output = capsys.readouterr().out
        for count in ("2", "3", "4", "5", "6", "8"):
            assert count in output
        assert "tpch_q08" in output


class TestOptimizeCommand:
    def test_optimizes_named_block(self, capsys):
        assert cli.main(["optimize", "tpch_q14", "--levels", "2", "--scale", "smoke"]) == 0
        output = capsys.readouterr().out
        assert "optimizing tpch_q14" in output
        assert "resolution 0" in output
        assert "final frontier" in output

    def test_accepts_short_query_names(self, capsys):
        assert cli.main(["optimize", "q14", "--levels", "1", "--scale", "smoke"]) == 0
        assert "tpch_q14" in capsys.readouterr().out

    def test_unknown_query_fails_with_hint(self):
        with pytest.raises(SystemExit, match="unknown query"):
            cli.main(["optimize", "q99", "--scale", "smoke"])

    def test_generated_workload_spec(self, capsys):
        assert (
            cli.main(["optimize", "gen:star:4:42", "--levels", "2", "--scale", "tiny"])
            == 0
        )
        output = capsys.readouterr().out
        assert "4 tables" in output
        assert "final frontier" in output

    def test_malformed_generated_spec_fails_with_hint(self):
        with pytest.raises(SystemExit, match="gen:<topology>:<tables>:<seed>"):
            cli.main(["optimize", "gen:star:oops", "--scale", "tiny"])

    @pytest.mark.parametrize(
        "algorithm",
        ["iama", "memoryless", "oneshot", "exhaustive", "single_objective"],
    )
    def test_every_registered_planner_is_selectable(self, capsys, algorithm):
        argv = [
            "optimize", "gen:chain:3:0",
            "--algorithm", algorithm,
            "--levels", "2",
            "--scale", "tiny",
        ]
        assert cli.main(argv) == 0
        output = capsys.readouterr().out
        assert f"algorithm {algorithm}" in output

    def test_unknown_algorithm_fails_with_candidates(self):
        with pytest.raises(SystemExit, match="unknown planner"):
            cli.main(["optimize", "q14", "--algorithm", "quantum", "--scale", "tiny"])

    def test_json_output_round_trips_through_the_schema(self, capsys):
        argv = [
            "optimize", "gen:chain:3:1",
            "--algorithm", "oneshot",
            "--levels", "2",
            "--scale", "tiny",
            "--json",
        ]
        assert cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        result = OptimizationResult.from_dict(payload)
        assert result.to_dict() == payload
        assert result.algorithm == "oneshot"
        assert result.finish_reason == "exhausted"
        assert result.frontier_size == len(payload["frontier"])

    def test_text_output_reports_arena_occupancy(self, capsys):
        argv = ["optimize", "gen:star:4:42", "--levels", "2", "--scale", "tiny"]
        assert cli.main(argv) == 0
        output = capsys.readouterr().out
        assert "plan arena:" in output
        assert "live plans" in output
        assert "tombstoned" in output

    def test_json_output_carries_arena_occupancy_stats(self, capsys):
        argv = [
            "optimize", "gen:star:4:42",
            "--algorithm", "iama",
            "--levels", "2",
            "--scale", "tiny",
            "--json",
        ]
        assert cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        details = payload["invocations"][-1]["details"]
        assert details["arena_plans_live"] > 0
        assert details["arena_plans_tombstoned"] >= 0
        assert details["arena_peak_bytes"] > 0


class TestCompareCommand:
    def test_compares_all_algorithms(self, capsys):
        assert cli.main(["compare", "tpch_q14", "--levels", "2", "--scale", "smoke"]) == 0
        output = capsys.readouterr().out
        assert "Incremental anytime" in output
        assert "Memoryless" in output
        assert "One-shot" in output
        assert "faster than" in output

    def test_compare_accepts_planner_subset_and_gen_specs(self, capsys):
        argv = [
            "compare", "gen:cycle:3:2",
            "--algorithm", "iama",
            "--algorithm", "exhaustive",
            "--levels", "2",
            "--scale", "tiny",
        ]
        assert cli.main(argv) == 0
        output = capsys.readouterr().out
        assert "Incremental anytime" in output
        assert "exhaustive" in output
        assert "Memoryless" not in output

    def test_compare_json_emits_one_result_per_planner(self, capsys):
        argv = [
            "compare", "gen:chain:3:0",
            "--algorithm", "iama",
            "--algorithm", "oneshot",
            "--levels", "2",
            "--scale", "tiny",
            "--json",
        ]
        assert cli.main(argv) == 0
        payloads = json.loads(capsys.readouterr().out)
        assert [p["algorithm"] for p in payloads] == ["iama", "oneshot"]
        for payload in payloads:
            assert OptimizationResult.from_dict(payload).to_dict() == payload

    def test_compare_unknown_algorithm_fails(self):
        with pytest.raises(SystemExit, match="unknown planner"):
            cli.main(["compare", "q14", "--algorithm", "quantum", "--scale", "tiny"])


class TestExperimentCommand:
    def test_runs_ablation_and_exports(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "rows.json"
        exit_code = cli.main(
            [
                "experiment",
                "ablation-keep-dominated",
                "--scale",
                "smoke",
                "--csv",
                str(csv_path),
                "--json",
                str(json_path),
            ]
        )
        assert exit_code == 0
        assert csv_path.exists()
        assert json_path.exists()
        output = capsys.readouterr().out
        assert "ablation_keep_dominated" in output

    def test_unknown_experiment_fails(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            cli.main(["experiment", "figure99", "--scale", "smoke"])

    def test_unknown_scale_fails(self):
        with pytest.raises(SystemExit):
            cli.main(["optimize", "q14", "--scale", "huge"])


class TestBenchCommand:
    def test_writes_one_report_per_experiment(self, capsys, tmp_path):
        out_dir = tmp_path / "results"
        argv = [
            "bench",
            "--experiment",
            "ablation-freshness",
            "--experiment",
            "metric-sweep",
            "--scale",
            "tiny",
            "--out",
            str(out_dir),
        ]
        assert cli.main(argv) == 0
        output = capsys.readouterr().out
        assert "ablation_freshness: 2 rows -> " in output
        assert "metric_sweep: 4 rows -> " in output
        assert sorted(path.name for path in out_dir.iterdir()) == [
            "ablation_freshness.txt",
            "metric_sweep.txt",
        ]

    def test_figure_sweeps_also_write_the_speedup_summary(self, capsys, tmp_path):
        argv = ["bench", "--scale", "tiny", "--out", str(tmp_path)]
        for name in ("figure3", "figure4", "figure5"):
            argv += ["--experiment", name]
        assert cli.main(argv) == 0
        assert "speedup_summary: derived from figures 3-5" in capsys.readouterr().out
        assert (tmp_path / "speedup_summary.txt").exists()

    def test_unknown_experiment_fails_with_candidates(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            cli.main(["bench", "--experiment", "figure99", "--scale", "tiny"])

    def test_options_are_experiment_out_and_scale(self):
        parser = cli.build_parser()
        (subparsers,) = [
            action for action in parser._actions if action.dest == "command"
        ]
        bench = subparsers.choices["bench"]
        options = [
            action.option_strings[0]
            for action in bench._actions
            if action.option_strings and action.dest != "help"
        ]
        assert options == ["--experiment", "--out", "--scale"]


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_parser_builds(self):
        parser = cli.build_parser()
        assert parser.prog == "repro"
