"""E-topo: synthetic join-graph topology sweep (cycle/clique workloads).

The paper's TPC-H workload only contains chain- and star-shaped join blocks.
The synthetic generator also supports cycle and clique topologies; this sweep
runs IAMA and the memoryless baseline over all four shapes (several table
counts, several seeds).

Expected shape:

* denser topologies (clique) enumerate more joinable splits, hence generate at
  least as many plans as sparse ones (chain) at the same table count,
* IAMA's incremental advantage over the memoryless baseline persists across
  topologies.
"""

from benchmarks.conftest import persist_result
from repro.bench.experiments import SYNTHETIC_TOPOLOGIES_SPEC
from repro.bench.reporting import format_rows
from repro.bench.runner import AlgorithmName


def test_synthetic_topology_sweep(benchmark, bench_config, result_cache):
    result = benchmark.pedantic(
        SYNTHETIC_TOPOLOGIES_SPEC.run, args=(bench_config,), rounds=1, iterations=1
    )
    result_cache["synthetic_topologies"] = result
    sections = tuple(
        formatter(result) for formatter in SYNTHETIC_TOPOLOGIES_SPEC.section_formatters
    )
    path = persist_result(result, extra_sections=sections)
    print(format_rows(result))
    print(f"[synthetic_topologies] rows written to {path}")

    # Every configured (topology, table count, algorithm) combination reports.
    topologies = {row["topology"] for row in result.rows}
    assert topologies == set(bench_config.synthetic_topologies)
    for row in result.rows:
        assert row["avg_invocation_seconds"] > 0
        assert row["mean_frontier_size"] > 0

    # Denser join graphs admit more splits: at the largest table count the
    # clique sweep must build at least as many plans as the chain sweep.
    largest = max(bench_config.synthetic_table_counts)
    iama = AlgorithmName.INCREMENTAL_ANYTIME.label
    if largest >= 3 and {"chain", "clique"} <= topologies:
        chain = result.filtered(topology="chain", table_count=largest, algorithm=iama)
        clique = result.filtered(topology="clique", table_count=largest, algorithm=iama)
        assert clique[0]["plans_generated"] >= chain[0]["plans_generated"]
