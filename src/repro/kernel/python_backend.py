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

import math
from array import array
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple, Union

NAME = "python"

Columns = Sequence[array]
Vector = Sequence[float]
#: A bucket id: an ``int``, or ``math.inf`` for an infinite value.
BucketId = Union[int, float]


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


def covered_positions(columns: Columns, others: Columns) -> List[int]:
    """Ascending positions ``i`` of ``others`` for which some row of
    ``columns`` is ``<=`` row ``i`` component-wise.

    Both blocks are dense (no liveness bitmap).  The pruning layer marks the
    plans of a block that an incumbent covers with it: the rows of
    ``columns`` are incumbent costs, those of ``others`` the block's
    ``alpha_r``-scaled costs.  Each position first tries the row that
    covered the previous one -- neighbouring plans of a block tend to share
    their cover -- and scans every row only when that fails.
    """
    rows = list(zip(*columns))
    if not rows:
        return []
    dims = len(columns)
    out: List[int] = []
    append = out.append
    if dims == 1:
        (o0,) = others
        (h0,) = rows[0]
        for i, x0 in enumerate(o0):
            if h0 <= x0:
                append(i)
                continue
            for (r0,) in rows:
                if r0 <= x0:
                    h0 = r0
                    append(i)
                    break
        return out
    if dims == 2:
        o0, o1 = others
        h0, h1 = rows[0]
        for i, x0, x1 in zip(range(len(o0)), o0, o1):
            if h0 <= x0 and h1 <= x1:
                append(i)
                continue
            for r0, r1 in rows:
                if r0 <= x0 and r1 <= x1:
                    h0, h1 = r0, r1
                    append(i)
                    break
        return out
    if dims == 3:
        o0, o1, o2 = others
        h0, h1, h2 = rows[0]
        for i, x0, x1, x2 in zip(range(len(o0)), o0, o1, o2):
            if h0 <= x0 and h1 <= x1 and h2 <= x2:
                append(i)
                continue
            for r0, r1, r2 in rows:
                if r0 <= x0 and r1 <= x1 and r2 <= x2:
                    h0, h1, h2 = r0, r1, r2
                    append(i)
                    break
        return out
    last = rows[0]
    for i, target in enumerate(zip(*others)):
        for row in (last, *rows):
            if all(r <= x for r, x in zip(row, target)):
                last = row
                append(i)
                break
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


def bucket_of(value: float, log_base: float) -> BucketId:
    """The log bucket of one value: ``int(math.log(value + 1.0) / log_base)``,
    or ``math.inf`` for an infinite value (the formula of both backends)."""
    if math.isinf(value):
        return math.inf
    return int(math.log(value + 1.0) / log_base)


def bucket_runs(
    column: Sequence[float], log_base: float
) -> Tuple[Optional[List[int]], List[Tuple[BucketId, int]]]:
    """Group a block's positions by the log bucket of ``column``.

    The bucket of a value ``c`` is ``int(math.log(c + 1.0) / log_base)``,
    and ``math.inf`` for an infinite ``c``.  Returns ``(order, runs)``:
    ``order`` lists the positions bucket by bucket, buckets in order of
    first appearance and positions in block order within each, and is
    ``None`` when the block holds at most one bucket; ``runs`` holds one
    ``(bucket id, count)`` per bucket, in that order.  The plan index
    registers a fresh block with it
    (:meth:`repro.core.index.PlanIndex.insert_ids`).
    """
    groups: Dict[BucketId, List[int]] = {}
    for position, value in enumerate(column):
        bucket_id = bucket_of(value, log_base)
        group = groups.get(bucket_id)
        if group is None:
            groups[bucket_id] = [position]
        else:
            group.append(position)
    runs = [(bucket_id, len(group)) for bucket_id, group in groups.items()]
    if len(groups) < 2:
        return None, runs
    return list(chain.from_iterable(groups.values())), runs


def interleave(columns: Sequence[Sequence[float]]) -> array:
    """Merge equally long columns row by row: ``out[i * k + j] = columns[j][i]``
    for ``k`` columns.

    The batched costing path costs each join operator of a block as one
    column per metric and interleaves the operators' columns, so the block's
    plans come out pair-major, operator-minor.
    """
    return array("d", chain.from_iterable(zip(*columns)))


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
