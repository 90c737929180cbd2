"""Pure-Python kernel backend.

Operates directly on the structure-of-arrays storage of
:class:`repro.costs.matrix.CostMatrix`: ``columns`` is a sequence of
``array('d')`` (one per cost metric, all the same length) and ``alive`` is an
``array('b')`` of 0/1 liveness flags of that length.  A *slot* is a row index
into those arrays; killed rows stay in place until the owner compacts, so
every operation masks with ``alive``.

The loops are specialised for the metric counts that actually occur in the
paper's workloads (one to three metrics); the generic path handles any
dimensionality.  This backend is the reference implementation: the numpy
backend must produce identical results (exact IEEE-754 comparisons in both).
"""

from __future__ import annotations

from array import array
from typing import List, Sequence

NAME = "python"

Columns = Sequence[array]
Vector = Sequence[float]


def leq_slots(columns: Columns, alive: array, vector: Vector) -> List[int]:
    """Slots of live rows ``r`` with ``r <= vector`` component-wise."""
    n = len(alive)
    if n == 0:
        return []
    dims = len(columns)
    if dims == 1:
        c0, (b0,) = columns[0], vector
        return [i for i in range(n) if alive[i] and c0[i] <= b0]
    if dims == 2:
        (c0, c1), (b0, b1) = columns, vector
        return [i for i in range(n) if alive[i] and c0[i] <= b0 and c1[i] <= b1]
    if dims == 3:
        (c0, c1, c2), (b0, b1, b2) = columns, vector
        return [
            i
            for i in range(n)
            if alive[i] and c0[i] <= b0 and c1[i] <= b1 and c2[i] <= b2
        ]
    out: List[int] = []
    for i in range(n):
        if not alive[i]:
            continue
        for col, bound in zip(columns, vector):
            if col[i] > bound:
                break
        else:
            out.append(i)
    return out


def geq_slots(columns: Columns, alive: array, vector: Vector) -> List[int]:
    """Slots of live rows ``r`` with ``r >= vector`` component-wise."""
    n = len(alive)
    if n == 0:
        return []
    dims = len(columns)
    if dims == 1:
        c0, (b0,) = columns[0], vector
        return [i for i in range(n) if alive[i] and c0[i] >= b0]
    if dims == 2:
        (c0, c1), (b0, b1) = columns, vector
        return [i for i in range(n) if alive[i] and c0[i] >= b0 and c1[i] >= b1]
    if dims == 3:
        (c0, c1, c2), (b0, b1, b2) = columns, vector
        return [
            i
            for i in range(n)
            if alive[i] and c0[i] >= b0 and c1[i] >= b1 and c2[i] >= b2
        ]
    out: List[int] = []
    for i in range(n):
        if not alive[i]:
            continue
        for col, bound in zip(columns, vector):
            if col[i] < bound:
                break
        else:
            out.append(i)
    return out


def first_leq(columns: Columns, alive: array, vector: Vector) -> int:
    """Slot of the first live row ``<= vector`` component-wise, or ``-1``."""
    n = len(alive)
    dims = len(columns)
    if dims == 1:
        c0, (b0,) = columns[0], vector
        for i in range(n):
            if alive[i] and c0[i] <= b0:
                return i
        return -1
    if dims == 2:
        (c0, c1), (b0, b1) = columns, vector
        for i in range(n):
            if alive[i] and c0[i] <= b0 and c1[i] <= b1:
                return i
        return -1
    if dims == 3:
        (c0, c1, c2), (b0, b1, b2) = columns, vector
        for i in range(n):
            if alive[i] and c0[i] <= b0 and c1[i] <= b1 and c2[i] <= b2:
                return i
        return -1
    for i in range(n):
        if not alive[i]:
            continue
        ok = True
        for k in range(dims):
            if columns[k][i] > vector[k]:
                ok = False
                break
        if ok:
            return i
    return -1


def any_leq(columns: Columns, alive: array, vector: Vector) -> bool:
    """Whether some live row is ``<= vector`` component-wise."""
    return first_leq(columns, alive, vector) != -1


def rowwise_leq(columns: Columns, others: Columns, vector: Vector) -> List[int]:
    """Positions ``i`` where row ``i`` is ``<=`` row ``i`` of ``others`` and
    ``<= vector``, component-wise.

    Both blocks are dense (no liveness bitmap) and equally long.  The pruning
    layer checks a block's cached witnesses with it: row ``i`` of
    ``columns`` is the witness cost of plan ``i``, row ``i`` of ``others``
    its ``alpha_r``-scaled cost, and ``vector`` the cost bounds.
    """
    dims = len(columns)
    if dims == 1:
        (c0,), (o0,), (b0,) = columns, others, vector
        return [i for i in range(len(c0)) if c0[i] <= o0[i] and c0[i] <= b0]
    if dims == 2:
        (c0, c1), (o0, o1), (b0, b1) = columns, others, vector
        return [
            i
            for i in range(len(c0))
            if c0[i] <= o0[i] and c0[i] <= b0 and c1[i] <= o1[i] and c1[i] <= b1
        ]
    if dims == 3:
        (c0, c1, c2), (o0, o1, o2), (b0, b1, b2) = columns, others, vector
        return [
            i
            for i in range(len(c0))
            if c0[i] <= o0[i]
            and c0[i] <= b0
            and c1[i] <= o1[i]
            and c1[i] <= b1
            and c2[i] <= o2[i]
            and c2[i] <= b2
        ]
    out: List[int] = []
    for i in range(len(columns[0])):
        for col, other, bound in zip(columns, others, vector):
            if col[i] > other[i] or col[i] > bound:
                break
        else:
            out.append(i)
    return out


def scale_columns(columns: Columns, factor: float) -> List[array]:
    """Multiply every column by a non-negative scalar; returns new columns."""
    return [array("d", (value * factor for value in col)) for col in columns]


def take(columns: Columns, indices: Sequence[int]) -> List[array]:
    """Gather the rows at ``indices`` from every column; returns new columns.

    The batched costing path uses this to collect the cost rows of the left
    and right child plans of a combination block from the arena's matrix.
    """
    return [array("d", (col[i] for i in indices)) for col in columns]


def combine_columns(
    spec: Sequence, left: Sequence[float], right: Sequence[float], local: float
) -> array:
    """Aggregate two equally long metric columns with a scalar local cost.

    ``spec`` is the lowered form of one metric's aggregation function (see
    :func:`repro.costs.metrics.aggregation_spec`); the arithmetic mirrors
    :mod:`repro.costs.aggregation` operation for operation, so block costing
    is bit-identical to the per-plan ``Metric.combine`` path -- in both
    backends.
    """
    op = spec[0]
    if op == "sum":
        return array("d", (l + r + local for l, r in zip(left, right)))
    if op == "max":
        return array("d", (max(l, r, local) for l, r in zip(left, right)))
    if op == "pipeline_max":
        return array("d", (max(l, r) + local for l, r in zip(left, right)))
    if op == "min":
        return array("d", (min(l, r) + local for l, r in zip(left, right)))
    if op == "scaled_sum":
        scale_left, scale_right = spec[1], spec[2]
        return array(
            "d",
            (
                scale_left * l + scale_right * r + local
                for l, r in zip(left, right)
            ),
        )
    if op == "precision_loss":
        x = min(local, 1.0)
        out = array("d")
        for raw_l, raw_r in zip(left, right):
            l = min(raw_l, 1.0)
            r = min(raw_r, 1.0)
            loss = l + r + x - l * r - l * x - r * x + l * r * x
            out.append(min(1.0, max(0.0, loss)))
        return out
    raise ValueError(f"unknown aggregation spec {spec!r}")


def pareto_mask(columns: Columns, alive: array) -> List[bool]:
    """Per-live-row mask (in slot order) of the strict-dominance frontier.

    Reference implementation: lexicographic sort + frontier sweep.  A
    dominating row always sorts lexicographically before the rows it
    dominates, so each row needs one pass over the frontier collected so far
    (``O(n log n + n * F * l)``); equal rows keep exactly one representative,
    the earliest slot (the sort is stable).
    """
    n = len(alive)
    dims = len(columns)
    slots = [i for i in range(n) if alive[i]]
    rows = [tuple(col[i] for col in columns) for i in slots]
    order = sorted(range(len(rows)), key=rows.__getitem__)
    frontier: List[tuple] = []
    keep = [False] * len(rows)
    for position in order:
        row = rows[position]
        dominated = False
        for front in frontier:
            for k in range(dims):
                if front[k] > row[k]:
                    break
            else:
                dominated = True
                break
        if not dominated:
            frontier.append(row)
            keep[position] = True
    return keep
