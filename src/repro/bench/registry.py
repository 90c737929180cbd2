"""The declarative experiment registry.

Every experiment (paper figures, ablations, new sweeps) is described by an
:class:`ExperimentSpec` around one function, ``run(config)``, that loops
over the experiment's own parameters for a configuration and returns an
:class:`~repro.bench.experiments.ExperimentResult` with its rows appended in
report order.  ``repro-moqo bench`` and ``repro-moqo experiment`` look
experiments up here by name; a caller runs one as
``get_spec(name).run(config)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.config import ExperimentConfig
    from repro.bench.experiments import ExperimentResult


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: its name and run function."""

    name: str
    run: Callable[["ExperimentConfig"], "ExperimentResult"]
    #: Extra plain-text sections (beyond the generic row dump) for the
    #: ``results/<name>.txt`` report; each callable renders one section.
    section_formatters: Tuple[Callable[["ExperimentResult"], str], ...] = ()
    #: Extra machine-readable artifacts written next to the text report;
    #: each callable takes ``(result, directory)``, writes one file derived
    #: purely from the rows (so rendering the same result twice is
    #: byte-identical) and returns its path.  Used e.g. for
    #: ``results/ablation_features.json``.
    artifacts: Tuple[Callable[["ExperimentResult", object], object], ...] = ()


_REGISTRY: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Register an experiment spec under its name (idempotent re-registration
    with an identical spec object is allowed; conflicting names raise)."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing is not spec:
        raise ValueError(f"experiment {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str) -> ExperimentSpec:
    """Look up a registered experiment; accepts ``-`` or ``_`` word separators."""
    # The experiment definitions live in repro.bench.experiments and
    # repro.bench.ablation; importing them here makes lookup work even for
    # callers that never imported them explicitly.
    import repro.bench.ablation  # noqa: F401  (registration side effect)
    import repro.bench.experiments  # noqa: F401  (registration side effect)

    normalized = name.replace("-", "_")
    try:
        return _REGISTRY[normalized]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown experiment {name!r}; registered experiments: {known}"
        ) from None


def registered_names() -> List[str]:
    """Names of all registered experiments, sorted."""
    import repro.bench.ablation  # noqa: F401  (registration side effect)
    import repro.bench.experiments  # noqa: F401  (registration side effect)

    return sorted(_REGISTRY)
