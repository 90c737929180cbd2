"""The declarative experiment registry.

Every experiment (paper figures, ablations, new sweeps) is described by an
:class:`ExperimentSpec` that decomposes the experiment into independent
*cells* -- one ``(experiment, query, seed, algorithm, ...)`` measurement each.
The decomposition is what makes the benchmark suite shardable:

* ``cells(config)`` enumerates the cells deterministically for a
  configuration; the enumeration order is the canonical merge order,
* ``run_cell(cell, config)`` computes one cell in isolation and returns a
  JSON-serializable payload (so the scheduler can run it in a worker process
  and the cache can persist it),
* ``merge(config, outcomes)`` folds the ``(cell, payload)`` pairs back into an
  :class:`~repro.bench.experiments.ExperimentResult`.  Merging must be a pure
  function of the *set* of outcomes -- the scheduler may deliver them from any
  mix of fresh computation and cache hits, in any completion order -- which is
  why it receives cells alongside payloads and must not depend on list order.

Independently computed cells are treated as mergeable facts keyed by their
content hash (see :mod:`repro.bench.cache`): two runs that agree on the cell
parameters and the configuration fingerprint refer to the same fact, so a
resumed run may adopt the cached payload instead of recomputing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.config import ExperimentConfig
    from repro.bench.experiments import ExperimentResult

#: Values allowed in cell parameters: JSON scalars only, so that cells hash
#: stably and survive the JSON round trip through the on-disk cache.
CellValue = object
CellPayload = Dict[str, object]


@dataclass(frozen=True)
class Cell:
    """One independent unit of benchmark work.

    ``params`` is a sorted tuple of ``(key, value)`` pairs restricted to JSON
    scalars; sorting makes equal parameter dicts produce equal (and equally
    hashed) cells regardless of construction order.
    """

    experiment: str
    params: Tuple[Tuple[str, CellValue], ...]

    @classmethod
    def make(cls, experiment: str, **params: CellValue) -> "Cell":
        for key, value in params.items():
            if not isinstance(value, (str, int, float, bool)) and value is not None:
                raise TypeError(
                    f"cell parameter {key}={value!r} is not a JSON scalar"
                )
        return cls(experiment=experiment, params=tuple(sorted(params.items())))

    @property
    def params_dict(self) -> Dict[str, CellValue]:
        return dict(self.params)

    def __getitem__(self, key: str) -> CellValue:
        for name, value in self.params:
            if name == key:
                return value
        raise KeyError(key)

    def label(self) -> str:
        """Compact human-readable identifier (used in progress output)."""
        parts = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.experiment}({parts})"


CellOutcomes = List[Tuple[Cell, CellPayload]]


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: cell enumeration, cell execution, merge."""

    name: str
    description: str
    cells: Callable[["ExperimentConfig"], List[Cell]]
    run_cell: Callable[[Cell, "ExperimentConfig"], CellPayload]
    merge: Callable[["ExperimentConfig", CellOutcomes], "ExperimentResult"]
    #: Extra plain-text sections (beyond the generic row dump) for the
    #: ``results/<name>.txt`` report; each callable renders one section.
    section_formatters: Tuple[Callable[["ExperimentResult"], str], ...] = ()
    #: Extra machine-readable artifacts written next to the text report;
    #: each callable takes ``(result, directory)``, writes one file derived
    #: purely from the merged rows (so warm-cache reruns are byte-identical)
    #: and returns its path.  Used e.g. for ``results/ablation_features.json``.
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
    # callers (e.g. pool worker processes under a spawning start method) that
    # never imported them explicitly.
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
