"""Tests for the sharded scheduler and the experiment registry.

The load-bearing guarantees (the ISSUE's acceptance criteria):

* serial (``jobs=1``) execution of a registered spec reproduces an inline
  merge of its cells, computed in enumeration order,
* merged output is a pure function of the cell facts -- shard count and
  outcome order must not matter,
* a resumed run over a warm cache performs **zero** recomputation and yields
  byte-identical reports.
"""

import pytest

from repro.bench.cache import ResultCache
from repro.bench.config import tiny_config
from repro.bench.experiments import ExperimentResult
from repro.bench.export import render_text_report
from repro.bench.registry import Cell, get_spec, registered_names
from repro.bench.scheduler import run_experiment


@pytest.fixture(scope="module")
def config():
    return tiny_config()


def _strip_timings(rows):
    return [
        {key: value for key, value in row.items() if "seconds" not in key}
        for row in rows
    ]


class TestRegistry:
    def test_all_known_experiments_are_registered(self):
        assert set(registered_names()) >= {
            "figure1",
            "figure2",
            "figure3",
            "figure4",
            "figure5",
            "ablation_freshness",
            "ablation_keep_dominated",
            "ablation_metric_count",
            "synthetic_topologies",
            "metric_sweep",
        }

    def test_lookup_accepts_dashes(self):
        assert get_spec("ablation-freshness").name == "ablation_freshness"

    def test_unknown_name_raises_with_candidates(self):
        with pytest.raises(KeyError, match="figure3"):
            get_spec("figure99")

    def test_every_spec_enumerates_cells_deterministically(self, config):
        for name in registered_names():
            spec = get_spec(name)
            cells = spec.cells(config)
            assert cells, f"{name} enumerated no cells"
            assert cells == spec.cells(config)
            assert all(isinstance(cell, Cell) for cell in cells)
            assert len(set(cells)) == len(cells), f"{name} has duplicate cells"

    def test_merge_is_order_independent(self, config):
        """Shards may complete in any order; the merge must not care."""
        for name in ("figure3", "synthetic_topologies", "metric_sweep"):
            spec = get_spec(name)
            outcomes = [
                (cell, spec.run_cell(cell, config)) for cell in spec.cells(config)
            ]
            forward = spec.merge(config, outcomes)
            backward = spec.merge(config, list(reversed(outcomes)))
            assert forward.rows == backward.rows, name
            assert forward.description == backward.description


class TestSerialEquivalence:
    def test_scheduler_matches_legacy_functions_structurally(self, config):
        for name in (
            "figure3",
            "ablation_freshness",
            "ablation_metric_count",
            "synthetic_topologies",
            "metric_sweep",
        ):
            spec = get_spec(name)
            scheduled = run_experiment(name, config, jobs=1).result
            direct = spec.merge(
                config, [(c, spec.run_cell(c, config)) for c in spec.cells(config)]
            )
            assert scheduled.name == direct.name
            assert scheduled.description == direct.description
            assert _strip_timings(scheduled.rows) == _strip_timings(direct.rows)
            assert [list(row) for row in scheduled.rows] == [
                list(row) for row in direct.rows
            ], f"{name}: column order diverged"


class TestShardingAndResume:
    def test_parallel_run_matches_serial_run(self, config):
        serial = run_experiment("metric_sweep", config, jobs=1)
        parallel = run_experiment("metric_sweep", config, jobs=2)
        assert parallel.total_cells == serial.total_cells
        assert _strip_timings(parallel.result.rows) == _strip_timings(
            serial.result.rows
        )

    def test_resumed_run_recomputes_nothing_and_is_byte_identical(
        self, config, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        first = run_experiment(
            "synthetic_topologies", config, jobs=1, cache=cache, resume=False
        )
        assert first.computed_cells == first.total_cells
        assert len(cache) == first.total_cells

        resumed = run_experiment(
            "synthetic_topologies", config, jobs=2, cache=cache, resume=True
        )
        assert resumed.computed_cells == 0
        assert resumed.cached_cells == first.total_cells
        assert resumed.result.rows == first.result.rows
        spec = get_spec("synthetic_topologies")
        sections_first = tuple(f(first.result) for f in spec.section_formatters)
        sections_resumed = tuple(f(resumed.result) for f in spec.section_formatters)
        assert render_text_report(
            resumed.result, sections_resumed
        ) == render_text_report(first.result, sections_first)

    def test_partial_cache_only_computes_missing_cells(self, config, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = get_spec("metric_sweep")
        cells = spec.cells(config)
        # Warm the cache for half the cells only.
        for cell in cells[: len(cells) // 2]:
            cache.store(cell, config, spec.run_cell(cell, config))
        report = run_experiment(spec, config, jobs=1, cache=cache, resume=True)
        assert report.cached_cells == len(cells) // 2
        assert report.computed_cells == len(cells) - len(cells) // 2
        assert len(cache) == len(cells)

    def test_without_resume_the_cache_is_write_only(self, config, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_experiment("ablation_freshness", config, jobs=1, cache=cache)
        report = run_experiment("ablation_freshness", config, jobs=1, cache=cache)
        assert report.cached_cells == 0
        assert report.computed_cells == report.total_cells

    def test_figure5_cells_are_shared_figure4_facts(self, config, tmp_path):
        """Figures 4 and 5 measure the same (precision, levels, query,
        algorithm) facts; the shared cell namespace must let a figure5 resume
        reuse a figure4 run's cache entirely."""
        figure4_cells = get_spec("figure4").cells(config)
        figure5_cells = get_spec("figure5").cells(config)
        assert set(figure5_cells) < set(figure4_cells)

        cache = ResultCache(tmp_path / "cache")
        run_experiment("figure4", config, jobs=1, cache=cache)
        report = run_experiment("figure5", config, jobs=1, cache=cache, resume=True)
        assert report.computed_cells == 0
        assert report.cached_cells == report.total_cells

    def test_interrupted_run_persists_completed_cells(self, config, tmp_path):
        """A failure mid-run must leave earlier cells in the cache so that a
        --resume rerun only recomputes what is actually missing."""
        from repro.bench.registry import Cell, ExperimentSpec

        cells = [Cell.make("partial_probe", index=i) for i in range(3)]
        explode = True

        def run_cell(cell, _config):
            if explode and cell["index"] == 1:
                raise RuntimeError("simulated worker crash")
            return {"index": cell["index"]}

        spec = ExperimentSpec(
            name="partial_probe",
            description="interrupt probe",
            cells=lambda _config: cells,
            run_cell=run_cell,
            merge=lambda _config, outcomes: ExperimentResult(
                name="partial_probe",
                description="",
                rows=[payload for _cell, payload in outcomes],
            ),
        )
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(RuntimeError, match="simulated"):
            run_experiment(spec, config, jobs=1, cache=cache)
        assert len(cache) == 1, "the cell completed before the crash is kept"

        explode = False
        resumed = run_experiment(spec, config, jobs=1, cache=cache, resume=True)
        assert resumed.cached_cells == 1
        assert resumed.computed_cells == 2
        assert resumed.result.rows == [{"index": 0}, {"index": 1}, {"index": 2}]

    def test_invalid_jobs_rejected(self, config):
        with pytest.raises(ValueError, match="jobs"):
            run_experiment("ablation_freshness", config, jobs=0)

    def test_progress_callback_sees_every_cell(self, config, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        seen = []
        run_experiment(
            "ablation_freshness",
            config,
            jobs=1,
            cache=cache,
            progress=lambda cell, cached: seen.append((cell, cached)),
        )
        assert len(seen) == 2
        assert all(not cached for _cell, cached in seen)
        seen.clear()
        run_experiment(
            "ablation_freshness",
            config,
            jobs=1,
            cache=cache,
            resume=True,
            progress=lambda cell, cached: seen.append((cell, cached)),
        )
        assert all(cached for _cell, cached in seen)
