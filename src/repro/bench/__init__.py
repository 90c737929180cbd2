"""Experiment harness.

This package reproduces the paper's evaluation (Section 6).  It is organized
in these layers:

* :mod:`repro.bench.config` -- experiment configurations (metric set, operator
  registry, workload scale, resolution schedules); presets ``tiny``, ``smoke``
  and ``paper`` trade fidelity against CPython run time,
* :mod:`repro.bench.runner` -- drives one algorithm through one invocation
  series for one query and measures per-invocation times,
* :mod:`repro.bench.registry` -- the declarative experiment registry: every
  experiment is one function ``run(config) -> ExperimentResult``,
* :mod:`repro.bench.experiments` -- the registered experiment definitions
  (Figures 3, 4 and 5, the Figure 1/2 illustrations, the headline speedup
  claims, the Δ-set, keep-dominated and metric-count ablations, and the
  synthetic sweeps),
* :mod:`repro.bench.reporting` -- plain-text tables in the shape of the
  paper's figures.
"""

from repro.bench.config import (
    ExperimentConfig,
    paper_config,
    smoke_config,
    tiny_config,
)
from repro.bench.runner import (
    AlgorithmName,
    InvocationSeries,
    build_factory,
    run_series,
)
from repro.bench.registry import ExperimentSpec, get_spec, registered_names
from repro.bench.experiments import (
    ExperimentResult,
    anytime_quality_experiment,
    interactive_refinement_experiment,
    speedup_summary,
)
from repro.bench.reporting import format_grouped_times, format_pivot, format_speedups

__all__ = [
    "ExperimentConfig",
    "smoke_config",
    "tiny_config",
    "paper_config",
    "AlgorithmName",
    "InvocationSeries",
    "build_factory",
    "run_series",
    "ExperimentSpec",
    "get_spec",
    "registered_names",
    "ExperimentResult",
    "anytime_quality_experiment",
    "interactive_refinement_experiment",
    "speedup_summary",
    "format_grouped_times",
    "format_pivot",
    "format_speedups",
]
