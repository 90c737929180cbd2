"""Pareto plan sets and approximate Pareto plan sets.

Section 3 of the paper defines:

* A plan ``p*`` is *Pareto-optimal* within a plan set ``P`` if no alternative
  plan strictly dominates it.
* ``P* ⊆ P`` is a *Pareto plan set* if every plan in ``P`` is dominated by some
  plan in ``P*``.
* ``P*_alpha ⊆ P`` is an *alpha-approximate Pareto plan set* if for every plan
  ``p`` in ``P`` there is a plan ``p*`` in ``P*_alpha`` with
  ``c(p*) <= alpha * c(p)``.
* With cost bounds ``b``, an *alpha-approximate b-bounded Pareto plan set* only
  needs to cover plans with ``alpha * c(p) <= b``.

This module provides free functions over plain cost-vector collections:
Pareto filtering (the test suite's ground truth), the check of the coverage
guarantee (:func:`is_alpha_cover`) and the smallest alpha at which one set
covers another (:func:`approximation_error`, used by the α-guarantee
checks).  IAMA's own result sets are maintained by
:mod:`repro.core.pruning` and :mod:`repro.core.index`; the exhaustive
baseline keeps its minimal frontiers in :mod:`repro.baselines.common`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.costs.dominance import (
    approximately_dominates,
    strictly_dominates,
    within_bounds,
)
from repro.costs.matrix import CostMatrix
from repro.costs.vector import CostVector


# ----------------------------------------------------------------------
# Free functions over plain cost-vector collections
# ----------------------------------------------------------------------
def pareto_filter(costs: Sequence[CostVector]) -> List[CostVector]:
    """Return the subset of ``costs`` that is not strictly dominated.

    Duplicate vectors are collapsed to exactly one representative (the first
    occurrence); the output preserves the input's first-occurrence order.

    The naive algorithm compares all pairs (``O(n^2 l)``).  This implementation
    sorts instead: a strictly dominating vector always sorts lexicographically
    before the vector it dominates, so a single sweep that checks each vector
    only against the frontier collected so far suffices.  For two metrics the
    sweep degenerates to the classic sort-then-scan with a running second-
    component minimum (``O(n log n)``); for more metrics the frontier check is
    one batched kernel call per vector (``O(n log n + n F)``).
    """
    unique: List[CostVector] = []
    seen = set()
    for c in costs:
        if c not in seen:
            seen.add(c)
            unique.append(c)
    if not unique:
        return []
    dims = unique[0].dimensions
    frontier_set = set()
    if dims == 2:
        ordered = sorted(unique, key=lambda c: c.values)
        # A vector is strictly dominated exactly when some lexicographically
        # earlier vector has a second component <= its own (vectors are
        # unique), so the frontier is the strictly-decreasing-y prefix chain.
        best_second: Optional[float] = None
        for c in ordered:
            if best_second is None or c[1] < best_second:
                best_second = c[1]
                frontier_set.add(c)
    else:
        matrix = CostMatrix.from_vectors(unique)
        mask = matrix.pareto_mask()
        frontier_set = {c for c, keep in zip(unique, mask) if keep}
    return [c for c in unique if c in frontier_set]


def is_pareto_optimal(cost: CostVector, costs: Iterable[CostVector]) -> bool:
    """True when no vector in ``costs`` strictly dominates ``cost``."""
    return not any(strictly_dominates(other, cost) for other in costs)


def is_alpha_cover(
    candidate: Sequence[CostVector],
    universe: Sequence[CostVector],
    alpha: float,
    bounds: Optional[CostVector] = None,
) -> bool:
    """Check the alpha-approximate (b-bounded) Pareto plan set condition.

    ``candidate`` is an alpha-approximate Pareto set for ``universe`` when for
    every ``u`` in ``universe`` there is a ``c`` in ``candidate`` with
    ``c <= alpha * u``.  When ``bounds`` is given, only universe vectors with
    ``alpha * u <= bounds`` need to be covered (Section 3, bounded variant).
    """
    for u in universe:
        if bounds is not None and not within_bounds(u.scaled(alpha), bounds):
            continue
        if not any(approximately_dominates(c, u, alpha) for c in candidate):
            return False
    return True


def approximation_error(
    candidate: Sequence[CostVector],
    universe: Sequence[CostVector],
    bounds: Optional[CostVector] = None,
) -> float:
    """Return the smallest alpha such that ``candidate`` alpha-covers ``universe``.

    The result is ``>= 1.0``; ``1.0`` means the candidate dominates every
    universe vector exactly.  Used by tests and by the Figure-2 style
    "result quality over time" experiment, where quality is reported as the
    inverse of the approximation error.

    When ``bounds`` is given, universe vectors that exceed the bounds are
    ignored (they would only need to be covered once scaled vectors fit in the
    bounds; for error reporting the unbounded subset is the relevant one).
    """
    if not universe:
        return 1.0
    if not candidate:
        return float("inf")
    worst = 1.0
    for u in universe:
        if bounds is not None and not within_bounds(u, bounds):
            continue
        best_for_u = float("inf")
        for c in candidate:
            ratio = _cover_ratio(c, u)
            best_for_u = min(best_for_u, ratio)
            if best_for_u <= worst:
                break
        worst = max(worst, best_for_u)
    return worst


def _cover_ratio(candidate: CostVector, target: CostVector) -> float:
    """Smallest alpha with ``candidate <= alpha * target`` (inf if impossible)."""
    alpha = 1.0
    for c, t in zip(candidate, target):
        if c <= t:
            continue
        if t == 0.0:
            return float("inf")
        alpha = max(alpha, c / t)
    return alpha
