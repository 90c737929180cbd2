"""Shared infrastructure for the benchmark targets.

Every benchmark regenerates one figure, claim or ablation from the paper (see
the README section "The experiment registry" for the experiment index).  The
benchmarks share:

* the experiment configuration, selected by the ``REPRO_BENCH_SCALE``
  environment variable (``smoke`` by default, ``paper`` for the full sweep),
* a session-wide cache of experiment results so that derived experiments
  (e.g. the speedup summary) can reuse the sweeps that earlier benchmarks
  already ran instead of repeating minutes of work,
* a helper that writes each experiment's rows and formatted table to
  ``results/<name>.txt`` so the figures survive the pytest run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

import pytest

from repro.bench.config import ExperimentConfig, config_from_environment
from repro.bench.experiments import ExperimentResult
from repro.bench.export import write_text_report
from repro.bench.reporting import format_grouped_times

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Session-wide cache of already-computed experiment results, keyed by name.
_RESULT_CACHE: Dict[str, ExperimentResult] = {}


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """The experiment configuration used by every benchmark in this session."""
    return config_from_environment()


@pytest.fixture(scope="session")
def result_cache() -> Dict[str, ExperimentResult]:
    """Mutable cache shared by all benchmarks of the session."""
    return _RESULT_CACHE


def persist_result(
    result: ExperimentResult,
    grouped: bool = False,
    extra_sections: tuple = (),
) -> Path:
    """Write an experiment's rows (and grouped table, if applicable) to disk.

    Thin wrapper over :func:`repro.bench.export.write_text_report` -- the same
    writer the ``repro-moqo bench`` command uses, so benchmark-produced and
    CLI-produced ``results/*.txt`` files are byte-identical given equal rows.
    """
    sections = list(extra_sections)
    if grouped:
        sections = [
            format_grouped_times(result, "avg_invocation_seconds"),
            format_grouped_times(result, "max_invocation_seconds"),
            *sections,
        ]
    return write_text_report(result, RESULTS_DIR, extra_sections=tuple(sections))
