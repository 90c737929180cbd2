"""E-metric-grid: metric-count x query-size sweep on synthetic chain queries.

The metric-count ablation (A-abl-3) fixes one query and varies the number of
objectives; this sweep crosses the metric count with the query size on the
synthetic chain workload, exercising the ``rpt`` bound of Lemma 1 (result plan
sets grow with both the number of tables and the number of metrics).
"""

from benchmarks.conftest import persist_result
from repro.bench.experiments import METRIC_SWEEP_SPEC
from repro.bench.reporting import format_rows


def test_metric_count_times_query_size_sweep(benchmark, bench_config, result_cache):
    result = benchmark.pedantic(
        METRIC_SWEEP_SPEC.run, args=(bench_config,), rounds=1, iterations=1
    )
    result_cache["metric_sweep"] = result
    sections = tuple(
        formatter(result) for formatter in METRIC_SWEEP_SPEC.section_formatters
    )
    path = persist_result(result, extra_sections=sections)
    print(format_rows(result))
    print(f"[metric_sweep] rows written to {path}")

    # The grid is fully populated.
    grid = {(row["metric_count"], row["table_count"]) for row in result.rows}
    expected = {
        (m, n)
        for m in bench_config.metric_count_settings
        for n in bench_config.synthetic_table_counts
    }
    assert grid == expected

    # More metrics can only enlarge the frontier for the same queries.
    largest = max(bench_config.synthetic_table_counts)
    by_metric = {
        row["metric_count"]: row
        for row in result.filtered(table_count=largest)
    }
    counts = sorted(by_metric)
    assert by_metric[counts[-1]]["mean_frontier_size"] >= by_metric[counts[0]][
        "mean_frontier_size"
    ]
    # Larger queries generate more plans at every metric count.
    smallest = min(bench_config.synthetic_table_counts)
    for metric_count in counts:
        small = result.filtered(metric_count=metric_count, table_count=smallest)[0]
        large = result.filtered(metric_count=metric_count, table_count=largest)[0]
        assert large["plans_generated"] >= small["plans_generated"]
