"""Experiment definitions: one registered function per figure, claim and ablation.

Every experiment is one function, ``run(config) -> ExperimentResult``, that
loops over its own parameters and appends its rows in report order; it is
registered in :mod:`repro.bench.registry` under its name and runs as
``get_spec(name).run(config)``.  The experiments that take parameters beyond
the configuration (Figures 1 and 2 and three of the ablations) are registered
with those parameters at their defaults and can be called directly with
others.

Every function returns an :class:`ExperimentResult` holding plain-dict rows so
that benchmark targets, tests and the exporters (:mod:`repro.bench.export`)
can consume the same data.
"""

from __future__ import annotations

import statistics as stats
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence

from repro import flags
from repro.bench.config import (
    ExperimentConfig,
    FINE_PRECISION,
    MODERATE_PRECISION,
    PrecisionSetting,
)
from repro.bench.registry import ExperimentSpec, register
from repro.bench.runner import (
    AlgorithmName,
    InvocationSeries,
    build_factory,
    build_schedule,
    run_series,
)
from repro.bench.runner import _open_planner
from repro.costs.metrics import cloud_metric_set, extended_metric_set
from repro.interactive.user_models import BoundTighteningUser
from repro.plans.query import Query
from repro.workloads.generator import generated_workload
from repro.workloads.tpch import tpch_blocks_by_table_count


@dataclass
class ExperimentResult:
    """Rows of measurements plus metadata describing one experiment."""

    name: str
    description: str
    rows: List[Dict[str, object]] = field(default_factory=list)

    def filtered(self, **criteria) -> List[Dict[str, object]]:
        """Rows matching all the given column values."""
        return [
            row
            for row in self.rows
            if all(row.get(key) == value for key, value in criteria.items())
        ]

    def column(self, name: str, **criteria) -> List[object]:
        """Values of one column across the (optionally filtered) rows."""
        return [row[name] for row in self.filtered(**criteria)]


# ----------------------------------------------------------------------
# Shared sweep over TPC-H blocks
# ----------------------------------------------------------------------
@lru_cache(maxsize=8)
def _workload(config: ExperimentConfig) -> Dict[int, List[Query]]:
    # Memoized per configuration (ExperimentConfig is frozen/hashable): the
    # figure sweeps and the representative-query lookups all consult the
    # workload, and rebuilding the TPC-H blocks each time would repeat setup
    # work between measurements.  Callers must not mutate the returned mapping.
    grouped = tpch_blocks_by_table_count(max_tables=config.max_tables)
    limit = config.max_queries_per_group
    if limit is not None:
        grouped = {count: queries[:limit] for count, queries in grouped.items()}
    return grouped


# Text-report sections for the grouped (figure 3/4/5 style) experiments; the
# reporting module imports this module, so import it lazily here.
def _grouped_avg_section(result: ExperimentResult) -> str:
    from repro.bench.reporting import format_grouped_times

    return format_grouped_times(result, "avg_invocation_seconds")


def _grouped_max_section(result: ExperimentResult) -> str:
    from repro.bench.reporting import format_grouped_times

    return format_grouped_times(result, "max_invocation_seconds")


# ----------------------------------------------------------------------
# Figures 3, 4 and 5: invocation-time sweeps
# ----------------------------------------------------------------------
def _sweep_rows(
    config: ExperimentConfig,
    precision: PrecisionSetting,
    level_settings: Sequence[int],
) -> List[Dict[str, object]]:
    """One row per (levels, table count, algorithm), averaged over queries."""
    rows: List[Dict[str, object]] = []
    for levels in level_settings:
        for table_count, queries in _workload(config).items():
            series: Dict[AlgorithmName, List[InvocationSeries]] = {
                algorithm: [] for algorithm in AlgorithmName
            }
            for query in queries:
                for algorithm in AlgorithmName:
                    series[algorithm].append(
                        run_series(algorithm, query, config, levels, precision)
                    )
            for algorithm, series_list in series.items():
                rows.append(
                    {
                        "precision": precision.name,
                        "resolution_levels": levels,
                        "table_count": table_count,
                        "algorithm": algorithm.label,
                        "queries": len(series_list),
                        "avg_invocation_seconds": stats.mean(
                            s.average_seconds for s in series_list
                        ),
                        "max_invocation_seconds": max(
                            s.maximum_seconds for s in series_list
                        ),
                        "total_plans_generated": sum(
                            s.plans_generated for s in series_list
                        ),
                    }
                )
    return rows


def _make_sweep_spec(name, description, precision, levels_fn) -> ExperimentSpec:
    def run(config: ExperimentConfig) -> ExperimentResult:
        return ExperimentResult(
            name=name,
            description=description(config) if callable(description) else description,
            rows=_sweep_rows(config, precision, levels_fn(config)),
        )

    return register(
        ExperimentSpec(
            name=name,
            run=run,
            section_formatters=(_grouped_avg_section, _grouped_max_section),
        )
    )


FIGURE3_SPEC = _make_sweep_spec(
    "figure3",
    (
        "Average time per optimizer invocation for TPC-H sub-queries, "
        "target precision alpha_T=1.01, alpha_S=0.05, grouped by number "
        "of query tables and resolution-level setting."
    ),
    MODERATE_PRECISION,
    lambda config: config.resolution_level_settings,
)

FIGURE4_SPEC = _make_sweep_spec(
    "figure4",
    (
        "Average time per optimizer invocation for TPC-H sub-queries, "
        "target precision alpha_T=1.005, alpha_S=0.5."
    ),
    FINE_PRECISION,
    lambda config: config.resolution_level_settings,
)

FIGURE5_SPEC = _make_sweep_spec(
    "figure5",
    lambda config: (
        "Maximal time per optimizer invocation for TPC-H sub-queries, "
        f"target precision alpha_T=1.005, "
        f"{max(config.resolution_level_settings)} resolution levels."
    ),
    FINE_PRECISION,
    lambda config: [max(config.resolution_level_settings)],
)


# ----------------------------------------------------------------------
# Figure 2 style: anytime quality over time / per-invocation behaviour
# ----------------------------------------------------------------------
def _representative_query(config: ExperimentConfig, table_count: int = 5) -> Query:
    """A medium-sized TPC-H block (falls back to the largest available)."""
    workload = _workload(config)
    for count in sorted(workload, reverse=True):
        if count <= table_count:
            return workload[count][0]
    smallest = min(workload)
    return workload[smallest][0]


def anytime_quality_experiment(
    config: ExperimentConfig, levels: Optional[int] = None
) -> ExperimentResult:
    """Figure 2 illustration: anytime vs one-shot, incremental vs memoryless.

    Produces two row families:

    * ``kind="quality"``: cumulative optimization time against the size of the
      visualized frontier (the anytime algorithm reports intermediate results,
      the one-shot algorithm only reports at the end),
    * ``kind="per_invocation"``: run time of every invocation for IAMA and the
      memoryless baseline (the memoryless cost grows with the resolution, the
      incremental cost stays low).
    """
    if levels is None:
        levels = max(config.resolution_level_settings)
    query = _representative_query(config)
    schedule = build_schedule(levels, MODERATE_PRECISION)
    results = {}
    for algorithm in AlgorithmName:
        # The first drain is untimed: one-off costs of the first session in
        # the process would otherwise land in the timed session's first
        # invocation.
        for _ in range(2):
            session = _open_planner(
                algorithm.value, query, build_factory(query, config), schedule
            )
            results[algorithm] = session.run()
    rows: List[Dict[str, object]] = []

    # Anytime (IAMA): one frontier per resolution level.
    elapsed = 0.0
    for invocation in results[AlgorithmName.INCREMENTAL_ANYTIME].invocations:
        elapsed += invocation.duration_seconds
        rows.append(
            {
                "kind": "quality",
                "algorithm": AlgorithmName.INCREMENTAL_ANYTIME.label,
                "elapsed_seconds": elapsed,
                "frontier_size": invocation.frontier_size,
                "resolution": invocation.resolution,
            }
        )
        rows.append(
            {
                "kind": "per_invocation",
                "algorithm": AlgorithmName.INCREMENTAL_ANYTIME.label,
                "invocation": invocation.index,
                "seconds": invocation.duration_seconds,
            }
        )

    # Memoryless: same frontiers, regenerated from scratch each time.
    memoryless = results[AlgorithmName.MEMORYLESS]
    for index, seconds in enumerate(memoryless.durations_seconds, start=1):
        rows.append(
            {
                "kind": "per_invocation",
                "algorithm": AlgorithmName.MEMORYLESS.label,
                "invocation": index,
                "seconds": seconds,
            }
        )

    # One-shot: a single result at the end.
    oneshot = results[AlgorithmName.ONE_SHOT].invocations[-1]
    rows.append(
        {
            "kind": "quality",
            "algorithm": AlgorithmName.ONE_SHOT.label,
            "elapsed_seconds": oneshot.duration_seconds,
            "frontier_size": oneshot.frontier_size,
            "resolution": levels - 1,
        }
    )
    return ExperimentResult(
        name="figure2",
        description=(
            f"Anytime behaviour on {query.name}: result availability over time "
            "and per-invocation run times (illustration of Figure 2)."
        ),
        rows=rows,
    )


register(
    ExperimentSpec(
        name="figure2",
        run=anytime_quality_experiment,
    )
)


# ----------------------------------------------------------------------
# Figure 1: interactive refinement
# ----------------------------------------------------------------------
def interactive_refinement_experiment(
    config: ExperimentConfig, levels: int = 5, iterations: int = 6
) -> ExperimentResult:
    """Figure 1 illustration: frontier refinement under interactive bound changes.

    Runs a two-metric (time vs monetary fees) interactive session on a TPC-H
    block with a user that keeps tightening the execution-time bound, and
    records how the visualized frontier evolves.
    """
    # Imported lazily, like ``_open_planner``: repro.api.request imports
    # repro.bench.config, which would close an import cycle here.
    from repro.api.request import Budget

    cloud_config = config.with_overrides(metric_set=cloud_metric_set())
    query = _representative_query(cloud_config, table_count=4)
    user = BoundTighteningUser(
        cloud_config.metric_set, "execution_time", tighten_every=2
    )
    rows: List[Dict[str, object]] = []

    def react(update):
        action = user.react(update)
        invocation = update.invocation
        rows.append(
            {
                "iteration": invocation.index,
                "resolution": invocation.resolution,
                "frontier_size": len(update.frontier),
                "time_bound": invocation.bounds[0],
                "invocation_seconds": invocation.duration_seconds,
                "action": type(action).__name__,
            }
        )
        return action

    # ``continuous``: Algorithm 1 keeps refining at the maximal resolution
    # until the user selects a plan or the invocation budget runs out.
    _open_planner(
        "iama",
        query,
        build_factory(query, cloud_config),
        build_schedule(levels, MODERATE_PRECISION),
        continuous=True,
        budget=Budget(max_invocations=iterations),
    ).run(user=react)
    return ExperimentResult(
        name="figure1",
        description=(
            f"Interactive refinement on {query.name} (time vs fees): frontier "
            "size and bounds per iteration while the user tightens the time "
            "bound (illustration of Figure 1)."
        ),
        rows=rows,
    )


register(
    ExperimentSpec(
        name="figure1",
        run=interactive_refinement_experiment,
    )
)


# ----------------------------------------------------------------------
# Headline speedup claims (Section 6.2)
# ----------------------------------------------------------------------
def speedup_summary(
    figure3: ExperimentResult, figure4: ExperimentResult, figure5: ExperimentResult
) -> ExperimentResult:
    """Derive the Section 6.2 headline comparisons from the figure sweeps.

    Paper claims (for the full-scale setting):

    * with one resolution level IAMA is at most ~37% slower than the baselines,
    * with more resolution levels IAMA is several times faster on average
      (up to 3-4x at alpha_T=1.01 with 5 levels, >=10x with 20 levels;
      up to 14x vs memoryless and 37x vs one-shot at alpha_T=1.005),
    * on maximal invocation time IAMA is several times faster (up to ~8x).

    This is a *derived* experiment: it runs nothing of its own and recombines
    the rows of Figures 3-5, which is why it is not a registered spec.
    """
    rows: List[Dict[str, object]] = []

    def add_ratio_rows(result: ExperimentResult, measure: str) -> None:
        level_settings = sorted(
            {row["resolution_levels"] for row in result.rows}
        )
        for levels in level_settings:
            iama_rows = result.filtered(
                resolution_levels=levels,
                algorithm=AlgorithmName.INCREMENTAL_ANYTIME.label,
            )
            for baseline in (AlgorithmName.MEMORYLESS, AlgorithmName.ONE_SHOT):
                base_rows = result.filtered(
                    resolution_levels=levels, algorithm=baseline.label
                )
                ratios = []
                for iama_row, base_row in zip(iama_rows, base_rows):
                    if iama_row[measure] > 0:
                        ratios.append(base_row[measure] / iama_row[measure])
                if not ratios:
                    continue
                rows.append(
                    {
                        "experiment": result.name,
                        "measure": measure,
                        "resolution_levels": levels,
                        "baseline": baseline.label,
                        "max_speedup": max(ratios),
                        "min_speedup": min(ratios),
                    }
                )

    add_ratio_rows(figure3, "avg_invocation_seconds")
    add_ratio_rows(figure4, "avg_invocation_seconds")
    add_ratio_rows(figure5, "max_invocation_seconds")
    return ExperimentResult(
        name="speedup_summary",
        description="IAMA speedups over the baselines, derived from Figures 3-5.",
        rows=rows,
    )


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------
def ablation_freshness(
    config: ExperimentConfig, levels: int = 5
) -> ExperimentResult:
    """A-abl-2: effect of the Δ-set optimization on pair enumeration and time.

    With the Δ-sets off every invocation enumerates all pairs, and
    ``IsFresh`` -- decided from the invocation history -- drops those an
    earlier invocation combined, so both rows generate the same plans.
    """
    query = _representative_query(config)
    schedule = build_schedule(levels, MODERATE_PRECISION)
    rows: List[Dict[str, object]] = []
    for delta_sets in (True, False):
        with flags.overrides(delta_sets=delta_sets):
            session = _open_planner(
                "iama", query, build_factory(query, config), schedule
            )
            result = session.run()
        rows.append(
            {
                "delta_sets": delta_sets,
                "query": query.name,
                "total_seconds": result.total_seconds,
                "pairs_enumerated": (
                    session.driver.optimizer.state.counters.pairs_enumerated
                ),
                "plans_generated": result.plans_generated,
                "frontier_size": result.invocations[-1].frontier_size,
            }
        )
    return ExperimentResult(
        name="ablation_freshness",
        description=(
            "Δ-set optimization on versus off: identical plan generation "
            "(IsFresh deduplicates) but different pair-enumeration effort."
        ),
        rows=rows,
    )


register(
    ExperimentSpec(
        name="ablation_freshness",
        run=ablation_freshness,
    )
)


def ablation_result_set_growth(
    config: ExperimentConfig, levels: int = 5
) -> ExperimentResult:
    """A-abl-1: cost of never discarding dominated result plans.

    IAMA keeps dominated result plans (Section 4.2); the prior approximation
    schemes keep minimal plan sets.  Comparing IAMA's stored plans against a
    one-shot DP with dominance eviction quantifies the space overhead bought
    for the incremental time guarantees.
    """
    query = _representative_query(config)
    schedule = build_schedule(levels, MODERATE_PRECISION)
    session = _open_planner("iama", query, build_factory(query, config), schedule)
    session.run()
    state = session.driver.optimizer.state
    result_plans = state.total_result_plans()
    candidate_plans = state.total_candidate_plans()
    minimal = _open_planner(
        "oneshot",
        query,
        build_factory(query, config),
        schedule,
        keep_dominated=False,
    ).run()
    minimal_kept = minimal.invocations[-1].details["plans_kept"]
    rows = [
        {
            "query": query.name,
            "iama_result_plans": result_plans,
            "iama_candidate_plans": candidate_plans,
            "minimal_result_plans": minimal_kept,
            "result_plan_inflation": (
                result_plans / minimal_kept if minimal_kept else float("inf")
            ),
        }
    ]
    return ExperimentResult(
        name="ablation_keep_dominated",
        description=(
            "Stored-plan counts of IAMA (which never discards result plans) "
            "versus the minimal plan sets of the memoryless baseline."
        ),
        rows=rows,
    )


register(
    ExperimentSpec(
        name="ablation_keep_dominated",
        run=ablation_result_set_growth,
    )
)


def ablation_metric_count(
    config: ExperimentConfig,
    metric_counts: Optional[Sequence[int]] = None,
    levels: int = 5,
) -> ExperimentResult:
    """A-abl-3: how the number of cost metrics affects invocation time.

    ``metric_counts`` defaults to ``config.metric_count_settings``; rows come
    in ascending metric count.
    """
    if metric_counts is None:
        metric_counts = config.metric_count_settings
    rows: List[Dict[str, object]] = []
    for count in sorted(metric_counts):
        metric_config = config.with_overrides(metric_set=extended_metric_set(count))
        query = _representative_query(metric_config, table_count=4)
        series = run_series(
            AlgorithmName.INCREMENTAL_ANYTIME,
            query,
            metric_config,
            levels,
            MODERATE_PRECISION,
        )
        rows.append(
            {
                "metric_count": count,
                "query": query.name,
                "avg_invocation_seconds": series.average_seconds,
                "max_invocation_seconds": series.maximum_seconds,
                "frontier_size": series.frontier_size,
                "plans_generated": series.plans_generated,
            }
        )
    return ExperimentResult(
        name="ablation_metric_count",
        description="IAMA invocation time and frontier size versus the number of cost metrics.",
        rows=rows,
    )


register(
    ExperimentSpec(
        name="ablation_metric_count",
        run=ablation_metric_count,
    )
)


# ----------------------------------------------------------------------
# Synthetic topology sweep (new workload: cycle/clique join graphs)
# ----------------------------------------------------------------------
_SYNTHETIC_ALGORITHMS = (
    AlgorithmName.INCREMENTAL_ANYTIME,
    AlgorithmName.MEMORYLESS,
)


def synthetic_topologies(config: ExperimentConfig) -> ExperimentResult:
    """IAMA and the memoryless baseline on every configured join topology."""
    levels = max(config.resolution_level_settings)
    rows: List[Dict[str, object]] = []
    for topology in config.synthetic_topologies:
        for table_count in config.synthetic_table_counts:
            series: Dict[AlgorithmName, List[InvocationSeries]] = {
                algorithm: [] for algorithm in _SYNTHETIC_ALGORITHMS
            }
            for seed in config.synthetic_seeds:
                generated = generated_workload(seed, table_count, topology)
                for algorithm in _SYNTHETIC_ALGORITHMS:
                    series[algorithm].append(
                        run_series(
                            algorithm,
                            generated.query,
                            config,
                            levels,
                            MODERATE_PRECISION,
                            statistics=generated.statistics,
                        )
                    )
            for algorithm, series_list in series.items():
                rows.append(
                    {
                        "topology": topology,
                        "table_count": table_count,
                        "algorithm": algorithm.label,
                        "queries": len(series_list),
                        "avg_invocation_seconds": stats.mean(
                            s.average_seconds for s in series_list
                        ),
                        "max_invocation_seconds": max(
                            s.maximum_seconds for s in series_list
                        ),
                        "mean_frontier_size": stats.mean(
                            s.frontier_size for s in series_list
                        ),
                        "plans_generated": sum(s.plans_generated for s in series_list),
                    }
                )
    return ExperimentResult(
        name="synthetic_topologies",
        description=(
            "IAMA versus the memoryless baseline on synthetic chain, star, "
            "cycle and clique join graphs (seeded generator, averaged over "
            "seeds; the paper's TPC-H workload only exercises chain/star "
            "shapes)."
        ),
        rows=rows,
    )


def _topology_pivot_section(result: ExperimentResult) -> str:
    from repro.bench.reporting import format_pivot

    return format_pivot(
        result,
        row_key="table_count",
        column_key="topology",
        value_key="avg_invocation_seconds",
        block_key="algorithm",
    )


SYNTHETIC_TOPOLOGIES_SPEC = register(
    ExperimentSpec(
        name="synthetic_topologies",
        run=synthetic_topologies,
        section_formatters=(_topology_pivot_section,),
    )
)


# ----------------------------------------------------------------------
# Metric-count x query-size sweep (new workload)
# ----------------------------------------------------------------------
def metric_sweep(config: ExperimentConfig) -> ExperimentResult:
    """IAMA over the metric-count x query-size grid on synthetic chains."""
    levels = max(config.resolution_level_settings)
    rows: List[Dict[str, object]] = []
    for metric_count in config.metric_count_settings:
        metric_config = config.with_overrides(
            metric_set=extended_metric_set(metric_count)
        )
        for table_count in config.synthetic_table_counts:
            series_list = []
            for seed in config.synthetic_seeds:
                generated = generated_workload(seed, table_count, "chain")
                series_list.append(
                    run_series(
                        AlgorithmName.INCREMENTAL_ANYTIME,
                        generated.query,
                        metric_config,
                        levels,
                        MODERATE_PRECISION,
                        statistics=generated.statistics,
                    )
                )
            rows.append(
                {
                    "metric_count": metric_count,
                    "table_count": table_count,
                    "queries": len(series_list),
                    "avg_invocation_seconds": stats.mean(
                        s.average_seconds for s in series_list
                    ),
                    "max_invocation_seconds": max(
                        s.maximum_seconds for s in series_list
                    ),
                    "mean_frontier_size": stats.mean(
                        s.frontier_size for s in series_list
                    ),
                    "plans_generated": sum(s.plans_generated for s in series_list),
                }
            )
    return ExperimentResult(
        name="metric_sweep",
        description=(
            "IAMA invocation time and frontier size across the metric-count x "
            "query-size grid on synthetic chain queries (seeded generator, "
            "averaged over seeds)."
        ),
        rows=rows,
    )


def _metric_sweep_time_section(result: ExperimentResult) -> str:
    from repro.bench.reporting import format_pivot

    return format_pivot(
        result,
        row_key="table_count",
        column_key="metric_count",
        value_key="avg_invocation_seconds",
    )


def _metric_sweep_frontier_section(result: ExperimentResult) -> str:
    from repro.bench.reporting import format_pivot

    return format_pivot(
        result,
        row_key="table_count",
        column_key="metric_count",
        value_key="mean_frontier_size",
    )


METRIC_SWEEP_SPEC = register(
    ExperimentSpec(
        name="metric_sweep",
        run=metric_sweep,
        section_formatters=(
            _metric_sweep_time_section,
            _metric_sweep_frontier_section,
        ),
    )
)
