"""E-fig5: Figure 5 -- maximal optimizer invocation time at alpha_T = 1.005.

Reproduces Figure 5: the *maximal* time of a single optimizer invocation
within the series, at the finer target precision and the largest configured
number of resolution levels.  The paper's observations:

* the memoryless and one-shot baselines are practically equivalent on this
  measure (the memoryless algorithm's worst invocation is its last one, which
  does the same work as the one-shot run),
* IAMA's worst invocation is several times cheaper.
"""

from benchmarks.conftest import persist_result
from repro.bench.registry import get_spec
from repro.bench.reporting import format_grouped_times
from repro.bench.runner import AlgorithmName


def test_figure5_maximal_invocation_time(benchmark, bench_config, result_cache):
    result = benchmark.pedantic(
        get_spec("figure5").run, args=(bench_config,), rounds=1, iterations=1
    )
    result_cache["figure5"] = result
    path = persist_result(result, grouped=True)
    print(format_grouped_times(result, measure="max_invocation_seconds"))
    print(f"[figure5] rows written to {path}")

    assert result.rows
    levels = max(bench_config.resolution_level_settings)
    assert {row["resolution_levels"] for row in result.rows} == {levels}

    # The memoryless baseline's worst invocation does one-shot-scale work, so
    # the two baselines should be within a small factor of each other.
    for row in result.filtered(algorithm=AlgorithmName.MEMORYLESS.label):
        one_shot = result.filtered(
            table_count=row["table_count"], algorithm=AlgorithmName.ONE_SHOT.label
        )[0]
        ratio = row["max_invocation_seconds"] / one_shot["max_invocation_seconds"]
        assert 0.2 <= ratio <= 5.0
