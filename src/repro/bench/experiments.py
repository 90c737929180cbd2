"""Experiment definitions: one registered spec per figure, claim and ablation.

Every experiment is registered in :mod:`repro.bench.registry` as a set of
independent cells plus a deterministic merge, so the scheduler
(:mod:`repro.bench.scheduler`) can shard it across worker processes, cache
each cell under ``results/cache/`` and resume interrupted runs; a registered
experiment runs as ``run_experiment(name, config).result``.  The experiments
that take parameters beyond the configuration (Figures 1 and 2 and three of
the ablations) also have a one-call function that runs the cells for those
parameters inline, in enumeration order.

Every function returns an :class:`ExperimentResult` holding plain-dict rows so
that benchmark targets, tests and the exporters (:mod:`repro.bench.export`)
can consume the same data.
"""

from __future__ import annotations

import statistics as stats
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.config import (
    ExperimentConfig,
    FINE_PRECISION,
    MODERATE_PRECISION,
    PrecisionSetting,
)
from repro.bench.registry import (
    Cell,
    CellOutcomes,
    CellPayload,
    ExperimentSpec,
    register,
)
from repro.bench.runner import (
    AlgorithmName,
    InvocationSeries,
    build_factory,
    build_schedule,
    run_series,
    series_from_payload,
    series_payload,
)
from repro.bench.runner import _planner_registry
from repro.costs.metrics import cloud_metric_set, extended_metric_set
from repro.interactive.session import InteractiveSession
from repro.interactive.user_models import BoundTighteningUser
from repro.plans.query import Query
from repro.workloads.generator import generated_workload, workload_fingerprint
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


#: Precision-setting lookup for cells, which carry the setting by name.
PRECISIONS: Dict[str, PrecisionSetting] = {
    MODERATE_PRECISION.name: MODERATE_PRECISION,
    FINE_PRECISION.name: FINE_PRECISION,
}


# ----------------------------------------------------------------------
# Shared sweep over TPC-H blocks
# ----------------------------------------------------------------------
@lru_cache(maxsize=8)
def _workload(config: ExperimentConfig) -> Dict[int, List[Query]]:
    # Memoized per configuration (ExperimentConfig is frozen/hashable): cell
    # enumeration, every run_cell and the merge all consult the workload, and
    # rebuilding the TPC-H blocks per cell would put repeated setup work on
    # the measured hot path.  Callers must not mutate the returned mapping.
    grouped = tpch_blocks_by_table_count(max_tables=config.max_tables)
    limit = config.max_queries_per_group
    if limit is not None:
        grouped = {count: queries[:limit] for count, queries in grouped.items()}
    return grouped


@lru_cache(maxsize=8)
def _query_index(config: ExperimentConfig) -> Dict[str, Query]:
    return {
        query.name: query
        for queries in _workload(config).values()
        for query in queries
    }


def _query_by_name(config: ExperimentConfig, name: str) -> Query:
    try:
        return _query_index(config)[name]
    except KeyError:
        raise KeyError(
            f"query {name!r} is not part of the configured workload"
        ) from None


def _serial_outcomes(
    spec: ExperimentSpec, config: ExperimentConfig, cells: Sequence[Cell]
) -> CellOutcomes:
    """Compute every cell inline, in order."""
    return [(cell, spec.run_cell(cell, config)) for cell in cells]


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
#: Shared cell namespace for the figure-3/4/5 sweeps.  The cells of those
#: figures are plain (precision, levels, query, algorithm) measurements --
#: figure5's cells are literally a subset of figure4's -- so keying them by a
#: common experiment id (instead of the figure name) lets the cache share the
#: facts across figures: after a figure4 run, a resumed figure5 run computes
#: nothing.
INVOCATION_SWEEP = "invocation_sweep"


def _sweep_cells(
    config: ExperimentConfig,
    precision: PrecisionSetting,
    level_settings: Sequence[int],
) -> List[Cell]:
    cells: List[Cell] = []
    workload = _workload(config)
    for levels in level_settings:
        for _table_count, queries in workload.items():
            for query in queries:
                for algorithm in AlgorithmName:
                    cells.append(
                        Cell.make(
                            INVOCATION_SWEEP,
                            precision=precision.name,
                            resolution_levels=int(levels),
                            query=query.name,
                            algorithm=algorithm.value,
                        )
                    )
    return cells


def _sweep_run_cell(cell: Cell, config: ExperimentConfig) -> CellPayload:
    precision = PRECISIONS[cell["precision"]]
    query = _query_by_name(config, cell["query"])
    series = run_series(
        AlgorithmName(cell["algorithm"]),
        query,
        config,
        cell["resolution_levels"],
        precision,
    )
    return series_payload(series)


def _sweep_rows(
    config: ExperimentConfig,
    precision: PrecisionSetting,
    level_settings: Sequence[int],
    outcomes: CellOutcomes,
) -> List[Dict[str, object]]:
    """Aggregate cell series into rows, in the canonical (serial) order."""
    lookup: Dict[Tuple[int, str, str], InvocationSeries] = {
        (
            cell["resolution_levels"],
            cell["query"],
            cell["algorithm"],
        ): series_from_payload(payload)
        for cell, payload in outcomes
    }
    rows: List[Dict[str, object]] = []
    workload = _workload(config)
    for levels in level_settings:
        for table_count, queries in workload.items():
            for algorithm in AlgorithmName:
                series_list = [
                    lookup[(int(levels), query.name, algorithm.value)]
                    for query in queries
                ]
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
    def cells(config: ExperimentConfig) -> List[Cell]:
        return _sweep_cells(config, precision, levels_fn(config))

    def merge(config: ExperimentConfig, outcomes: CellOutcomes) -> ExperimentResult:
        return ExperimentResult(
            name=name,
            description=description(config) if callable(description) else description,
            rows=_sweep_rows(config, precision, levels_fn(config), outcomes),
        )

    return register(
        ExperimentSpec(
            name=name,
            description=description if isinstance(description, str) else name,
            cells=cells,
            run_cell=_sweep_run_cell,
            merge=merge,
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


_FIGURE2_PARTS = ("incremental_anytime", "memoryless", "one_shot")


def _figure2_cells_for(config: ExperimentConfig, levels: Optional[int]) -> List[Cell]:
    if levels is None:
        levels = max(config.resolution_level_settings)
    return [
        Cell.make("figure2", part=part, resolution_levels=int(levels))
        for part in _FIGURE2_PARTS
    ]


def _figure2_cells(config: ExperimentConfig) -> List[Cell]:
    return _figure2_cells_for(config, None)


def _figure2_run_cell(cell: Cell, config: ExperimentConfig) -> CellPayload:
    levels = cell["resolution_levels"]
    query = _representative_query(config)
    schedule = build_schedule(levels, MODERATE_PRECISION)
    part = cell["part"]
    if part not in ("incremental_anytime", "memoryless", "one_shot"):
        raise ValueError(f"unknown figure2 part {part!r}")
    # One uniform drain through the planner registry; the payload shapes
    # predate the unified API and are kept for cell-cache compatibility.
    # The first drain is untimed: one-off costs of the first session in the
    # process would otherwise land in the timed session's first invocation.
    for _ in range(2):
        session = _planner_registry().open(
            part, query=query, factory=build_factory(query, config), schedule=schedule
        )
        result = session.run()
    if part == "incremental_anytime":
        invocations = [
            {
                "iteration": invocation.index,
                "resolution": invocation.resolution,
                "duration_seconds": invocation.duration_seconds,
                "frontier_size": invocation.frontier_size,
            }
            for invocation in result.invocations
        ]
        return {"query": query.name, "invocations": invocations}
    if part == "memoryless":
        return {
            "query": query.name,
            "durations_seconds": list(result.durations_seconds),
        }
    return {
        "query": query.name,
        "duration_seconds": result.invocations[-1].duration_seconds,
        "frontier_size": result.invocations[-1].frontier_size,
    }


def _figure2_merge(config: ExperimentConfig, outcomes: CellOutcomes) -> ExperimentResult:
    by_part = {cell["part"]: (cell, payload) for cell, payload in outcomes}
    iama_cell, iama = by_part["incremental_anytime"]
    levels = iama_cell["resolution_levels"]
    rows: List[Dict[str, object]] = []

    # Anytime (IAMA): one frontier per resolution level.
    elapsed = 0.0
    for invocation in iama["invocations"]:
        elapsed += invocation["duration_seconds"]
        rows.append(
            {
                "kind": "quality",
                "algorithm": AlgorithmName.INCREMENTAL_ANYTIME.label,
                "elapsed_seconds": elapsed,
                "frontier_size": invocation["frontier_size"],
                "resolution": invocation["resolution"],
            }
        )
        rows.append(
            {
                "kind": "per_invocation",
                "algorithm": AlgorithmName.INCREMENTAL_ANYTIME.label,
                "invocation": invocation["iteration"],
                "seconds": invocation["duration_seconds"],
            }
        )

    # Memoryless: same frontiers, regenerated from scratch each time.
    _, memoryless = by_part["memoryless"]
    for index, seconds in enumerate(memoryless["durations_seconds"], start=1):
        rows.append(
            {
                "kind": "per_invocation",
                "algorithm": AlgorithmName.MEMORYLESS.label,
                "invocation": index,
                "seconds": seconds,
            }
        )

    # One-shot: a single result at the end.
    _, oneshot = by_part["one_shot"]
    rows.append(
        {
            "kind": "quality",
            "algorithm": AlgorithmName.ONE_SHOT.label,
            "elapsed_seconds": oneshot["duration_seconds"],
            "frontier_size": oneshot["frontier_size"],
            "resolution": levels - 1,
        }
    )
    return ExperimentResult(
        name="figure2",
        description=(
            f"Anytime behaviour on {iama['query']}: result availability over time "
            "and per-invocation run times (illustration of Figure 2)."
        ),
        rows=rows,
    )


FIGURE2_SPEC = register(
    ExperimentSpec(
        name="figure2",
        description="Anytime vs one-shot, incremental vs memoryless (Figure 2).",
        cells=_figure2_cells,
        run_cell=_figure2_run_cell,
        merge=_figure2_merge,
    )
)


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
    cells = _figure2_cells_for(config, levels)
    return FIGURE2_SPEC.merge(config, _serial_outcomes(FIGURE2_SPEC, config, cells))


# ----------------------------------------------------------------------
# Figure 1: interactive refinement
# ----------------------------------------------------------------------
def _figure1_cells_for(config: ExperimentConfig, levels: int, iterations: int) -> List[Cell]:
    return [
        Cell.make(
            "figure1", resolution_levels=int(levels), iterations=int(iterations)
        )
    ]


def _figure1_cells(config: ExperimentConfig) -> List[Cell]:
    return _figure1_cells_for(config, levels=5, iterations=6)


def _figure1_run_cell(cell: Cell, config: ExperimentConfig) -> CellPayload:
    cloud_config = config.with_overrides(metric_set=cloud_metric_set())
    query = _representative_query(cloud_config, table_count=4)
    factory = build_factory(query, cloud_config)
    schedule = build_schedule(cell["resolution_levels"], MODERATE_PRECISION)
    user = BoundTighteningUser(
        cloud_config.metric_set, "execution_time", tighten_every=2
    )
    session = InteractiveSession(query, factory, schedule, user=user)
    session.run(max_iterations=cell["iterations"])
    rows: List[Dict[str, object]] = []
    for entry in session.timeline:
        bound_value = entry.snapshot.bounds[0]
        rows.append(
            {
                "iteration": entry.iteration,
                "resolution": entry.resolution,
                "frontier_size": entry.snapshot.size,
                "time_bound": bound_value,
                "invocation_seconds": entry.invocation_seconds,
                "action": type(entry.action).__name__,
            }
        )
    return {"query": query.name, "rows": rows}


def _figure1_merge(config: ExperimentConfig, outcomes: CellOutcomes) -> ExperimentResult:
    ((_cell, payload),) = outcomes
    return ExperimentResult(
        name="figure1",
        description=(
            f"Interactive refinement on {payload['query']} (time vs fees): frontier "
            "size and bounds per iteration while the user tightens the time "
            "bound (illustration of Figure 1)."
        ),
        rows=list(payload["rows"]),
    )


FIGURE1_SPEC = register(
    ExperimentSpec(
        name="figure1",
        description="Interactive frontier refinement (Figure 1).",
        cells=_figure1_cells,
        run_cell=_figure1_run_cell,
        merge=_figure1_merge,
    )
)


def interactive_refinement_experiment(
    config: ExperimentConfig, levels: int = 5, iterations: int = 6
) -> ExperimentResult:
    """Figure 1 illustration: frontier refinement under interactive bound changes.

    Runs a two-metric (time vs monetary fees) interactive session on a TPC-H
    block with a user that keeps tightening the execution-time bound, and
    records how the visualized frontier evolves.
    """
    cells = _figure1_cells_for(config, levels, iterations)
    return FIGURE1_SPEC.merge(config, _serial_outcomes(FIGURE1_SPEC, config, cells))


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

    This is a *derived* experiment: it has no cells of its own and recombines
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
def _freshness_cells_for(config: ExperimentConfig, levels: int) -> List[Cell]:
    return [
        Cell.make("ablation_freshness", delta_sets=flag, resolution_levels=int(levels))
        for flag in (True, False)
    ]


def _freshness_cells(config: ExperimentConfig) -> List[Cell]:
    return _freshness_cells_for(config, levels=5)


def _freshness_run_cell(cell: Cell, config: ExperimentConfig) -> CellPayload:
    query = _representative_query(config)
    factory = build_factory(query, config)
    schedule = build_schedule(cell["resolution_levels"], MODERATE_PRECISION)
    session = _planner_registry().open(
        "iama",
        query=query,
        factory=factory,
        schedule=schedule,
        use_delta_sets=cell["delta_sets"],
    )
    result = session.run()
    return {
        "delta_sets": cell["delta_sets"],
        "query": query.name,
        "total_seconds": result.total_seconds,
        "pairs_enumerated": session.driver.optimizer.state.counters.pairs_enumerated,
        "plans_generated": result.plans_generated,
        "frontier_size": result.invocations[-1].frontier_size,
    }


def _freshness_merge(config: ExperimentConfig, outcomes: CellOutcomes) -> ExperimentResult:
    by_flag = {cell["delta_sets"]: payload for cell, payload in outcomes}
    return ExperimentResult(
        name="ablation_freshness",
        description=(
            "Δ-set optimization on versus off: identical plan generation "
            "(IsFresh deduplicates) but different pair-enumeration effort."
        ),
        rows=[dict(by_flag[True]), dict(by_flag[False])],
    )


FRESHNESS_SPEC = register(
    ExperimentSpec(
        name="ablation_freshness",
        description="Effect of the Δ-set optimization (A-abl-2).",
        cells=_freshness_cells,
        run_cell=_freshness_run_cell,
        merge=_freshness_merge,
    )
)


def ablation_freshness(
    config: ExperimentConfig, levels: int = 5
) -> ExperimentResult:
    """A-abl-2: effect of the Δ-set optimization on pair enumeration and time."""
    cells = _freshness_cells_for(config, levels)
    return FRESHNESS_SPEC.merge(config, _serial_outcomes(FRESHNESS_SPEC, config, cells))


def _keep_dominated_cells_for(config: ExperimentConfig, levels: int) -> List[Cell]:
    return [
        Cell.make("ablation_keep_dominated", part=part, resolution_levels=int(levels))
        for part in ("iama", "minimal_one_shot")
    ]


def _keep_dominated_cells(config: ExperimentConfig) -> List[Cell]:
    return _keep_dominated_cells_for(config, levels=5)


def _keep_dominated_run_cell(cell: Cell, config: ExperimentConfig) -> CellPayload:
    query = _representative_query(config)
    factory = build_factory(query, config)
    schedule = build_schedule(cell["resolution_levels"], MODERATE_PRECISION)
    registry = _planner_registry()
    if cell["part"] == "iama":
        session = registry.open("iama", query=query, factory=factory, schedule=schedule)
        session.run()
        state = session.driver.optimizer.state
        return {
            "query": query.name,
            "result_plans": state.total_result_plans(),
            "candidate_plans": state.total_candidate_plans(),
        }
    session = registry.open(
        "oneshot", query=query, factory=factory, schedule=schedule, keep_dominated=False
    )
    result = session.run()
    return {
        "query": query.name,
        "plans_kept": result.invocations[-1].details["plans_kept"],
    }


def _keep_dominated_merge(
    config: ExperimentConfig, outcomes: CellOutcomes
) -> ExperimentResult:
    by_part = {cell["part"]: payload for cell, payload in outcomes}
    iama = by_part["iama"]
    minimal_kept = by_part["minimal_one_shot"]["plans_kept"]
    rows = [
        {
            "query": iama["query"],
            "iama_result_plans": iama["result_plans"],
            "iama_candidate_plans": iama["candidate_plans"],
            "minimal_result_plans": minimal_kept,
            "result_plan_inflation": (
                iama["result_plans"] / minimal_kept if minimal_kept else float("inf")
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


KEEP_DOMINATED_SPEC = register(
    ExperimentSpec(
        name="ablation_keep_dominated",
        description="Cost of never discarding dominated result plans (A-abl-1).",
        cells=_keep_dominated_cells,
        run_cell=_keep_dominated_run_cell,
        merge=_keep_dominated_merge,
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
    cells = _keep_dominated_cells_for(config, levels)
    return KEEP_DOMINATED_SPEC.merge(
        config, _serial_outcomes(KEEP_DOMINATED_SPEC, config, cells)
    )


def _metric_count_cells_for(
    config: ExperimentConfig, metric_counts: Sequence[int], levels: int
) -> List[Cell]:
    return [
        Cell.make(
            "ablation_metric_count",
            metric_count=int(count),
            resolution_levels=int(levels),
        )
        for count in metric_counts
    ]


def _metric_count_cells(config: ExperimentConfig) -> List[Cell]:
    return _metric_count_cells_for(config, config.metric_count_settings, levels=5)


def _metric_count_run_cell(cell: Cell, config: ExperimentConfig) -> CellPayload:
    count = cell["metric_count"]
    metric_config = config.with_overrides(metric_set=extended_metric_set(count))
    query = _representative_query(metric_config, table_count=4)
    series = run_series(
        AlgorithmName.INCREMENTAL_ANYTIME,
        query,
        metric_config,
        cell["resolution_levels"],
        MODERATE_PRECISION,
    )
    return {
        "metric_count": count,
        "query": query.name,
        "avg_invocation_seconds": series.average_seconds,
        "max_invocation_seconds": series.maximum_seconds,
        "frontier_size": series.frontier_size,
        "plans_generated": series.plans_generated,
    }


def _metric_count_merge(
    config: ExperimentConfig, outcomes: CellOutcomes
) -> ExperimentResult:
    rows = sorted(
        (dict(payload) for _cell, payload in outcomes),
        key=lambda row: row["metric_count"],
    )
    return ExperimentResult(
        name="ablation_metric_count",
        description="IAMA invocation time and frontier size versus the number of cost metrics.",
        rows=rows,
    )


METRIC_COUNT_SPEC = register(
    ExperimentSpec(
        name="ablation_metric_count",
        description="Invocation time versus number of cost metrics (A-abl-3).",
        cells=_metric_count_cells,
        run_cell=_metric_count_run_cell,
        merge=_metric_count_merge,
    )
)


def ablation_metric_count(
    config: ExperimentConfig,
    metric_counts: Optional[Sequence[int]] = None,
    levels: int = 5,
) -> ExperimentResult:
    """A-abl-3: how the number of cost metrics affects invocation time.

    ``metric_counts`` defaults to ``config.metric_count_settings`` so that this
    wrapper and the registered spec produce identical results for the same
    configuration.
    """
    if metric_counts is None:
        metric_counts = config.metric_count_settings
    cells = _metric_count_cells_for(config, metric_counts, levels)
    return METRIC_COUNT_SPEC.merge(
        config, _serial_outcomes(METRIC_COUNT_SPEC, config, cells)
    )


# ----------------------------------------------------------------------
# Synthetic topology sweep (new workload: cycle/clique join graphs)
# ----------------------------------------------------------------------
_SYNTHETIC_ALGORITHMS = (
    AlgorithmName.INCREMENTAL_ANYTIME,
    AlgorithmName.MEMORYLESS,
)


def _synthetic_levels(config: ExperimentConfig) -> int:
    return max(config.resolution_level_settings)


def _topology_cells(config: ExperimentConfig) -> List[Cell]:
    levels = _synthetic_levels(config)
    cells: List[Cell] = []
    for topology in config.synthetic_topologies:
        for table_count in config.synthetic_table_counts:
            for seed in config.synthetic_seeds:
                for algorithm in _SYNTHETIC_ALGORITHMS:
                    cells.append(
                        Cell.make(
                            "synthetic_topologies",
                            topology=topology,
                            table_count=int(table_count),
                            seed=int(seed),
                            algorithm=algorithm.value,
                            resolution_levels=int(levels),
                        )
                    )
    return cells


def _topology_run_cell(cell: Cell, config: ExperimentConfig) -> CellPayload:
    generated = generated_workload(cell["seed"], cell["table_count"], cell["topology"])
    series = run_series(
        AlgorithmName(cell["algorithm"]),
        generated.query,
        config,
        cell["resolution_levels"],
        MODERATE_PRECISION,
        statistics=generated.statistics,
    )
    payload = series_payload(series)
    payload["workload_fingerprint"] = workload_fingerprint(generated)
    return payload


def _topology_merge(config: ExperimentConfig, outcomes: CellOutcomes) -> ExperimentResult:
    lookup: Dict[Tuple[str, int, str, int], InvocationSeries] = {
        (
            cell["topology"],
            cell["table_count"],
            cell["algorithm"],
            cell["seed"],
        ): series_from_payload(payload)
        for cell, payload in outcomes
    }
    rows: List[Dict[str, object]] = []
    for topology in config.synthetic_topologies:
        for table_count in config.synthetic_table_counts:
            for algorithm in _SYNTHETIC_ALGORITHMS:
                series_list = [
                    lookup[(topology, int(table_count), algorithm.value, int(seed))]
                    for seed in config.synthetic_seeds
                ]
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
        description="Synthetic join-graph topology sweep (chain/star/cycle/clique).",
        cells=_topology_cells,
        run_cell=_topology_run_cell,
        merge=_topology_merge,
        section_formatters=(_topology_pivot_section,),
    )
)


# ----------------------------------------------------------------------
# Metric-count x query-size sweep (new workload)
# ----------------------------------------------------------------------
def _metric_sweep_cells(config: ExperimentConfig) -> List[Cell]:
    levels = _synthetic_levels(config)
    cells: List[Cell] = []
    for metric_count in config.metric_count_settings:
        for table_count in config.synthetic_table_counts:
            for seed in config.synthetic_seeds:
                cells.append(
                    Cell.make(
                        "metric_sweep",
                        metric_count=int(metric_count),
                        table_count=int(table_count),
                        seed=int(seed),
                        resolution_levels=int(levels),
                    )
                )
    return cells


def _metric_sweep_run_cell(cell: Cell, config: ExperimentConfig) -> CellPayload:
    metric_config = config.with_overrides(
        metric_set=extended_metric_set(cell["metric_count"])
    )
    generated = generated_workload(cell["seed"], cell["table_count"], "chain")
    series = run_series(
        AlgorithmName.INCREMENTAL_ANYTIME,
        generated.query,
        metric_config,
        cell["resolution_levels"],
        MODERATE_PRECISION,
        statistics=generated.statistics,
    )
    payload = series_payload(series)
    payload["workload_fingerprint"] = workload_fingerprint(generated)
    return payload


def _metric_sweep_merge(
    config: ExperimentConfig, outcomes: CellOutcomes
) -> ExperimentResult:
    lookup: Dict[Tuple[int, int, int], InvocationSeries] = {}
    for cell, payload in outcomes:
        key = (cell["metric_count"], cell["table_count"], cell["seed"])
        lookup[key] = series_from_payload(payload)
    rows: List[Dict[str, object]] = []
    for metric_count in config.metric_count_settings:
        for table_count in config.synthetic_table_counts:
            series_list = [
                lookup[(int(metric_count), int(table_count), int(seed))]
                for seed in config.synthetic_seeds
            ]
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
        description="Metric-count x query-size sweep on synthetic chain queries.",
        cells=_metric_sweep_cells,
        run_cell=_metric_sweep_run_cell,
        merge=_metric_sweep_merge,
        section_formatters=(
            _metric_sweep_time_section,
            _metric_sweep_frontier_section,
        ),
    )
)
