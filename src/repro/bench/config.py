"""Experiment configurations.

The paper's measurements ran inside a C implementation (Postgres 9.2) on TPC-H;
re-running the identical parameter sweep in pure CPython would take hours, so
the configuration carries an explicit *scale*:

* ``smoke`` -- a reduced operator registry, queries up to six tables, and the
  resolution-level settings {1, 5}.  Finishes in a couple of minutes and still
  exhibits every qualitative effect the paper reports.
* ``paper`` -- the full operator registry, all TPC-H blocks (2-8 tables), and
  the paper's resolution-level settings {1, 5, 20}.  Use when you have time.

Both presets use the paper's two precision settings: the "moderate" target
precision (``alpha_T = 1.01``, ``alpha_S = 0.05``; Figure 3) and the "fine"
target precision (``alpha_T = 1.005``, ``alpha_S = 0.5``; Figures 4 and 5).
The environment variable ``REPRO_BENCH_SCALE`` selects the preset used by the
pytest benchmark targets (default ``smoke``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.costs.metrics import MetricSet, paper_metric_set
from repro.costs.model import CostModelConfig
from repro.plans.operators import OperatorRegistry


@dataclass(frozen=True)
class PrecisionSetting:
    """One (alpha_T, alpha_S) combination from Section 6.1."""

    name: str
    target_precision: float
    precision_step: float


#: Figure 3 precision setting ("moderate target precision").
MODERATE_PRECISION = PrecisionSetting("moderate", 1.01, 0.05)
#: Figures 4 and 5 precision setting ("fine target precision").
FINE_PRECISION = PrecisionSetting("fine", 1.005, 0.5)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment needs to know about the setup."""

    #: Human-readable preset name ("smoke", "paper", or custom).
    name: str
    #: Cost metrics (defaults to the paper's three-metric setting).
    metric_set: MetricSet = field(default_factory=paper_metric_set)
    #: Cost model constants.
    cost_model: CostModelConfig = field(default_factory=CostModelConfig)
    #: Parallelism degrees offered to scans and joins.
    parallelism_levels: Tuple[int, ...] = (1, 2, 4)
    #: Sampling rates offered to sampled scans.
    sampling_rates: Tuple[float, ...] = (0.5, 0.1, 0.01)
    #: Join algorithms offered to every join.
    join_algorithms: Tuple[str, ...] = (
        "hash_join",
        "sort_merge_join",
        "nested_loop_join",
    )
    #: TPC-H scale factor used for table cardinalities.
    tpch_scale_factor: float = 1.0
    #: Only benchmark TPC-H blocks with at most this many tables (None = all).
    max_tables: Optional[int] = None
    #: Benchmark at most this many blocks per table-count group (None = all).
    max_queries_per_group: Optional[int] = None
    #: Resolution-level settings (the paper uses 1, 5 and 20).
    resolution_level_settings: Tuple[int, ...] = (1, 5, 20)
    #: Precision settings to sweep.
    precision_settings: Tuple[PrecisionSetting, ...] = (
        MODERATE_PRECISION,
        FINE_PRECISION,
    )
    #: Join-graph topologies exercised by the synthetic-workload sweep.
    synthetic_topologies: Tuple[str, ...] = ("chain", "star", "cycle", "clique")
    #: Table counts of the generated synthetic queries.
    synthetic_table_counts: Tuple[int, ...] = (2, 3, 4)
    #: Generator seeds; each (topology, table count, seed) cell is one query.
    synthetic_seeds: Tuple[int, ...] = (0, 1)
    #: Metric counts swept by the metric-count x query-size experiment.
    metric_count_settings: Tuple[int, ...] = (2, 3, 4)

    # ------------------------------------------------------------------
    def operator_registry(self) -> OperatorRegistry:
        """Operator registry matching this configuration."""
        return OperatorRegistry(
            parallelism_levels=self.parallelism_levels,
            sampling_rates=self.sampling_rates,
            join_algorithms=self.join_algorithms,
        )

    def with_overrides(self, **changes) -> "ExperimentConfig":
        """Return a copy of the configuration with fields replaced."""
        return replace(self, **changes)


def smoke_config() -> ExperimentConfig:
    """Reduced-scale configuration for CI-friendly benchmark runs."""
    return ExperimentConfig(
        name="smoke",
        parallelism_levels=(1, 2),
        sampling_rates=(0.5, 0.1),
        join_algorithms=("hash_join", "nested_loop_join"),
        max_tables=6,
        max_queries_per_group=1,
        resolution_level_settings=(1, 5),
        synthetic_table_counts=(2, 3),
        synthetic_seeds=(0, 1),
    )


def tiny_config() -> ExperimentConfig:
    """Minimal configuration for smoke tests of the harness itself.

    Everything is cut to the bone (single join algorithm, blocks up to three
    tables, two resolution levels) so that a full experiment finishes in a few
    seconds; use it to exercise the harness and CLI, not to draw
    performance conclusions.
    """
    return ExperimentConfig(
        name="tiny",
        parallelism_levels=(1,),
        sampling_rates=(0.5,),
        join_algorithms=("hash_join",),
        max_tables=3,
        max_queries_per_group=1,
        resolution_level_settings=(1, 2),
        synthetic_table_counts=(2, 3),
        synthetic_seeds=(0,),
        metric_count_settings=(2, 3),
    )


def paper_config() -> ExperimentConfig:
    """Full-scale configuration mirroring the paper's parameter sweep."""
    return ExperimentConfig(name="paper")


#: Preset name -> factory, as accepted by ``REPRO_BENCH_SCALE`` and ``--scale``.
CONFIG_PRESETS = {
    "tiny": tiny_config,
    "smoke": smoke_config,
    "paper": paper_config,
}


def config_from_environment(default: str = "smoke") -> ExperimentConfig:
    """Pick the preset named by ``REPRO_BENCH_SCALE``."""
    scale = os.environ.get("REPRO_BENCH_SCALE", default).strip().lower()
    factory = CONFIG_PRESETS.get(scale)
    if factory is None:
        expected = ", ".join(sorted(CONFIG_PRESETS))
        raise ValueError(
            f"unknown REPRO_BENCH_SCALE value {scale!r}; expected one of: {expected}"
        )
    return factory()
