"""E-fig4: Figure 4 -- average optimizer invocation time at alpha_T = 1.005.

Same sweep as Figure 3 but with the finer target precision (alpha_T = 1.005,
alpha_S = 0.5).  The paper's observation: the finer the target precision, the
larger the relative advantage of the incremental anytime algorithm over the
non-incremental baselines.
"""

from benchmarks.conftest import persist_result
from repro.bench.registry import get_spec
from repro.bench.reporting import format_grouped_times
from repro.bench.runner import AlgorithmName


def test_figure4_average_invocation_time_fine_precision(benchmark, bench_config, result_cache):
    result = benchmark.pedantic(
        get_spec("figure4").run, args=(bench_config,), rounds=1, iterations=1
    )
    result_cache["figure4"] = result
    path = persist_result(result, grouped=True)
    print(format_grouped_times(result))
    print(f"[figure4] rows written to {path}")

    assert result.rows
    # Finer precision must not make the one-shot baseline cheaper than the
    # moderate-precision run would be for the biggest blocks; at minimum the
    # sweep has to cover the same groups as figure 3.
    groups = {row["table_count"] for row in result.rows}
    assert len(groups) >= 2

    max_levels = max(bench_config.resolution_level_settings)
    if max_levels > 1:
        iama = result.filtered(
            resolution_levels=max_levels,
            algorithm=AlgorithmName.INCREMENTAL_ANYTIME.label,
        )
        one_shot = result.filtered(
            resolution_levels=max_levels, algorithm=AlgorithmName.ONE_SHOT.label
        )
        speedups = [
            base["avg_invocation_seconds"] / row["avg_invocation_seconds"]
            for row, base in zip(iama, one_shot)
            if row["avg_invocation_seconds"] > 0
        ]
        assert max(speedups) > 1.0, (
            "IAMA should be faster than the one-shot baseline on average for "
            "at least one table-count group at the finest precision"
        )
