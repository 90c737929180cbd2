"""The declarative experiment registry.

Every experiment (paper figures, ablations, new sweeps) is described by an
:class:`ExperimentSpec` around one function, ``run(config)``, that loops
over the experiment's own parameters for a configuration and returns an
:class:`~repro.bench.experiments.ExperimentResult` with its rows appended in
report order.  ``repro-moqo bench`` and ``repro-moqo experiment`` look
experiments up here by name; a caller runs one as
``get_spec(name).run(config)``.  An experiment's one output file is its
``results/<name>.txt`` report: the rows plus the spec's extra sections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.config import ExperimentConfig
    from repro.bench.experiments import ExperimentResult


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: its name, run function and report sections."""

    name: str
    run: Callable[["ExperimentConfig"], "ExperimentResult"]
    #: Extra plain-text sections (beyond the generic row dump) for the
    #: ``results/<name>.txt`` report; each callable renders one section.
    section_formatters: Tuple[Callable[["ExperimentResult"], str], ...] = ()


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
    # The experiment definitions live in repro.bench.experiments; importing
    # it here makes lookup work even for callers that never imported it.
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
    import repro.bench.experiments  # noqa: F401  (registration side effect)

    return sorted(_REGISTRY)
