"""Cost vectors.

The paper associates each query plan with a cost vector ``c(p)`` in ``R_+^l``
(Section 3): one non-negative component per cost metric.  ``CostVector`` is an
immutable, hashable value type with the small amount of arithmetic that the
optimizer and the cost model need:

* component-wise addition and maximum (the two aggregation primitives of the
  PONO class),
* scaling by a non-negative factor (used by the pruning procedure, which scales
  a plan's cost by the resolution factor ``alpha_r`` before comparing it),
* dominance comparisons (delegated to :mod:`repro.costs.dominance`).

Components are stored as a plain tuple of floats; the number of metrics ``l``
is small and treated as a constant throughout the paper's analysis, so no numpy
dependency is warranted for single vectors.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Tuple


class CostVector:
    """An immutable vector of non-negative cost values, one per metric.

    Parameters
    ----------
    values:
        The cost values.  All values must be finite or ``+inf`` and
        non-negative.  ``+inf`` is permitted because unbounded cost bounds are
        represented as vectors of infinities (Section 4.1 initializes the cost
        bounds to the "value infinity, indicating that no bounds are set").
    """

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[float]):
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ValueError("a cost vector needs at least one component")
        for v in vals:
            if math.isnan(v):
                raise ValueError("cost values must not be NaN")
            if v < 0.0:
                raise ValueError(f"cost values must be non-negative, got {v}")
        self._values = vals

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, dimensions: int) -> "CostVector":
        """Return the all-zero vector with the given number of metrics."""
        return cls([0.0] * dimensions)

    @classmethod
    def infinite(cls, dimensions: int) -> "CostVector":
        """Return the unbounded vector (used for "no cost bounds")."""
        return cls([math.inf] * dimensions)

    @classmethod
    def uniform(cls, dimensions: int, value: float) -> "CostVector":
        """Return a vector with every component equal to ``value``."""
        return cls([value] * dimensions)

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    @property
    def values(self) -> Tuple[float, ...]:
        """The underlying tuple of cost values."""
        return self._values

    @property
    def dimensions(self) -> int:
        """The number of cost metrics ``l``."""
        return len(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[float]:
        return iter(self._values)

    def __getitem__(self, index: int) -> float:
        return self._values[index]

    # ------------------------------------------------------------------
    # Equality / hashing / ordering helpers
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CostVector):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v:g}" for v in self._values)
        return f"CostVector([{inner}])"

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "CostVector") -> None:
        if len(self._values) != len(other._values):
            raise ValueError(
                "cost vectors have different dimensionality: "
                f"{len(self._values)} vs {len(other._values)}"
            )

    def __add__(self, other: "CostVector") -> "CostVector":
        self._check_compatible(other)
        return CostVector(a + b for a, b in zip(self._values, other._values))

    def componentwise_max(self, other: "CostVector") -> "CostVector":
        """Component-wise maximum (parallel-execution aggregation)."""
        self._check_compatible(other)
        return CostVector(max(a, b) for a, b in zip(self._values, other._values))

    def componentwise_min(self, other: "CostVector") -> "CostVector":
        """Component-wise minimum."""
        self._check_compatible(other)
        return CostVector(min(a, b) for a, b in zip(self._values, other._values))

    def scaled(self, factor: float) -> "CostVector":
        """Return this vector multiplied by a non-negative scalar.

        Used by the pruning procedure: the cost vector of a new plan is scaled
        by ``alpha_r`` before being compared against result plans (Algorithm 3,
        line 7).
        """
        if factor < 0.0:
            raise ValueError("scaling factor must be non-negative")
        return CostVector(v * factor for v in self._values)

    def __mul__(self, factor: float) -> "CostVector":
        return self.scaled(factor)

    def __rmul__(self, factor: float) -> "CostVector":
        return self.scaled(factor)

    def with_component(self, index: int, value: float) -> "CostVector":
        """Return a copy with one component replaced."""
        vals = list(self._values)
        vals[index] = value
        return CostVector(vals)

    # ------------------------------------------------------------------
    # Dominance (thin wrappers; the real logic lives in dominance.py)
    # ------------------------------------------------------------------
    def dominates(self, other: "CostVector") -> bool:
        """``self`` is at least as good as ``other`` on every metric."""
        from repro.costs.dominance import dominates

        return dominates(self, other)

    def strictly_dominates(self, other: "CostVector") -> bool:
        """``self`` dominates ``other`` and is strictly better somewhere."""
        from repro.costs.dominance import strictly_dominates

        return strictly_dominates(self, other)

    # ------------------------------------------------------------------
    # Misc helpers
    # ------------------------------------------------------------------
    def is_finite(self) -> bool:
        """True when every component is finite."""
        return all(math.isfinite(v) for v in self._values)

    def as_list(self) -> list:
        """Return the components as a mutable list (a copy)."""
        return list(self._values)

    def distance_to(self, other: "CostVector") -> float:
        """Euclidean distance, used only for reporting/visualization."""
        self._check_compatible(other)
        return math.sqrt(
            sum((a - b) ** 2 for a, b in zip(self._values, other._values))
        )
