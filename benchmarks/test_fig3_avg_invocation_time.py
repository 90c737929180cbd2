"""E-fig3: Figure 3 -- average optimizer invocation time at alpha_T = 1.01.

Reproduces the sweep behind Figure 3: average time per optimizer invocation
for TPC-H join blocks, grouped by the number of joined tables, for the
incremental anytime algorithm and the two baselines, at the moderate target
precision (alpha_T = 1.01, alpha_S = 0.05) and every configured
resolution-level setting.

Expected shape (the paper's Section 6.2):

* with a single resolution level IAMA is slightly slower than the baselines
  (indexing and extended pruning overhead),
* with more resolution levels IAMA's average invocation time drops well below
  both baselines,
* invocation times grow steeply with the number of joined tables.
"""

from benchmarks.conftest import persist_result
from repro.bench.registry import get_spec
from repro.bench.reporting import format_grouped_times
from repro.bench.runner import AlgorithmName


def test_figure3_average_invocation_time(benchmark, bench_config, result_cache):
    result = benchmark.pedantic(
        get_spec("figure3").run, args=(bench_config,), rounds=1, iterations=1
    )
    result_cache["figure3"] = result
    path = persist_result(result, grouped=True)
    print(format_grouped_times(result))
    print(f"[figure3] rows written to {path}")

    # Sanity checks on the shape of the data (not on absolute numbers).
    assert result.rows, "the sweep must produce measurements"
    max_levels = max(bench_config.resolution_level_settings)
    if max_levels > 1:
        iama_faster_somewhere = False
        for row in result.filtered(
            resolution_levels=max_levels,
            algorithm=AlgorithmName.INCREMENTAL_ANYTIME.label,
        ):
            memoryless = result.filtered(
                resolution_levels=max_levels,
                table_count=row["table_count"],
                algorithm=AlgorithmName.MEMORYLESS.label,
            )[0]
            if row["avg_invocation_seconds"] < memoryless["avg_invocation_seconds"]:
                iama_faster_somewhere = True
        assert iama_faster_somewhere, (
            "with several resolution levels IAMA should beat the memoryless "
            "baseline on average invocation time for at least one group"
        )
