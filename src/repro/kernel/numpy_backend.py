"""Numpy kernel backend.

Implements the same operations as :mod:`repro.kernel.python_backend` with
vectorised comparisons.  The column arrays (``array('d')``) and the liveness
bitmap (``array('b')``) are viewed through zero-copy ``numpy.frombuffer``;
nothing is ever copied except the working mask, so the backend adds no
per-row storage overhead.

For very small blocks the fixed cost of ufunc dispatch exceeds the loop cost,
so blocks below :data:`SMALL_BLOCK` rows are delegated to the pure-Python
loops.  Both paths use exact IEEE-754 comparisons and therefore produce
identical results.
"""

from __future__ import annotations

import math
from array import array
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.kernel import python_backend as _py

NAME = "numpy"

#: Below this many rows the pure-Python loops are faster than ufunc dispatch.
SMALL_BLOCK = 16

#: Fixed tile edge of the :func:`pareto_mask` sweep and the
#: :func:`covered_positions` broadcast.  Both broadcast axes are chunked to
#: this size, so the peak temporary is ``PARETO_TILE**2`` bytes per dimension
#: regardless of the block size -- a 100k-plan block peaks at the same few
#: hundred KiB as a 4k one.
PARETO_TILE = 1024

Columns = Sequence[array]
Vector = Sequence[float]


def _column_view(col: array) -> np.ndarray:
    return np.frombuffer(col, dtype=np.float64)


def _float_view(values: Sequence[float]) -> np.ndarray:
    """A column as float64: zero-copy for ``array('d')``, converted otherwise."""
    if isinstance(values, array):
        return _column_view(values)
    return np.asarray(values, dtype=np.float64)


def _alive_view(alive: array) -> np.ndarray:
    return np.frombuffer(alive, dtype=np.bool_)


def _leq_mask(columns: Columns, alive: array, vector: Vector) -> np.ndarray:
    mask = _alive_view(alive).copy()
    for col, bound in zip(columns, vector):
        np.logical_and(mask, _column_view(col) <= bound, out=mask)
    return mask


def _geq_mask(columns: Columns, alive: array, vector: Vector) -> np.ndarray:
    mask = _alive_view(alive).copy()
    for col, bound in zip(columns, vector):
        np.logical_and(mask, _column_view(col) >= bound, out=mask)
    return mask


def leq_slots(columns: Columns, alive: array, vector: Vector) -> List[int]:
    """Slots of live rows ``r`` with ``r <= vector`` component-wise."""
    if len(alive) < SMALL_BLOCK:
        return _py.leq_slots(columns, alive, vector)
    return np.nonzero(_leq_mask(columns, alive, vector))[0].tolist()


def geq_slots(columns: Columns, alive: array, vector: Vector) -> List[int]:
    """Slots of live rows ``r`` with ``r >= vector`` component-wise."""
    if len(alive) < SMALL_BLOCK:
        return _py.geq_slots(columns, alive, vector)
    return np.nonzero(_geq_mask(columns, alive, vector))[0].tolist()


def first_leq(columns: Columns, alive: array, vector: Vector) -> int:
    """Slot of the first live row ``<= vector`` component-wise, or ``-1``."""
    if len(alive) < SMALL_BLOCK:
        return _py.first_leq(columns, alive, vector)
    hits = np.nonzero(_leq_mask(columns, alive, vector))[0]
    return int(hits[0]) if hits.size else -1


def any_leq(columns: Columns, alive: array, vector: Vector) -> bool:
    """Whether some live row is ``<= vector`` component-wise."""
    if len(alive) < SMALL_BLOCK:
        return _py.any_leq(columns, alive, vector)
    return bool(_leq_mask(columns, alive, vector).any())


def covered_positions(columns: Columns, others: Columns) -> List[int]:
    """Ascending positions ``i`` of ``others`` for which some row of
    ``columns`` is ``<=`` row ``i`` component-wise (both blocks dense).

    Broadcasts rows against positions in :data:`PARETO_TILE` x
    :data:`PARETO_TILE` tiles, so no temporary exceeds ``PARETO_TILE**2``
    entries whatever the block sizes.
    """
    n = len(others[0])
    if n < SMALL_BLOCK:
        return _py.covered_positions(columns, others)
    m = len(columns[0])
    rows = [_column_view(col)[:, None] for col in columns]
    targets = [_column_view(other)[None, :] for other in others]
    covered = np.zeros(n, dtype=np.bool_)
    for start in range(0, n, PARETO_TILE):
        stop = min(start + PARETO_TILE, n)
        hit = covered[start:stop]
        for row_start in range(0, m, PARETO_TILE):
            row_stop = min(row_start + PARETO_TILE, m)
            tile = rows[0][row_start:row_stop] <= targets[0][:, start:stop]
            for row, target in zip(rows[1:], targets[1:]):
                np.logical_and(
                    tile, row[row_start:row_stop] <= target[:, start:stop], out=tile
                )
            np.logical_or(hit, tile.any(axis=0), out=hit)
    return np.nonzero(covered)[0].tolist()


def scale_columns(columns: Columns, factor: float) -> List[array]:
    """Multiply every column by a non-negative scalar; returns new columns."""
    scaled: List[array] = []
    for col in columns:
        out = array("d")
        out.frombytes((_column_view(col) * factor).tobytes())
        scaled.append(out)
    return scaled


def _as_array(values: np.ndarray) -> array:
    out = array("d")
    out.frombytes(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return out


def take(columns: Columns, indices: Sequence[int]) -> List[array]:
    """Gather the rows at ``indices`` from every column; returns new columns."""
    if len(indices) < SMALL_BLOCK:
        return _py.take(columns, indices)
    idx = np.asarray(indices, dtype=np.intp)
    return [_as_array(_float_view(col)[idx]) for col in columns]


#: A quotient within this relative distance of an integer is recomputed
#: with ``math.log``: ``np.log`` may differ from it in the last bit, which
#: moves a truncated quotient only next to an integer.
BUCKET_TOLERANCE = 1e-9

#: One value's bucket: the reference formula, shared by both backends.
bucket_of = _py.bucket_of


def bucket_runs(
    column: Sequence[float], log_base: float
) -> Tuple[Optional[List[int]], List[Tuple[_py.BucketId, int]]]:
    """Group a block's positions by the log bucket of ``column`` (see the
    pure-Python reference for the contract).

    The quotients ``log(c + 1) / log_base`` are computed with ``np.log``;
    every quotient near an integer, and every non-finite one, goes through
    the reference formula, so each bucket id equals
    ``int(math.log(c + 1.0) / log_base)``.  The grouping is one stable sort
    of the positions by bucket.
    """
    n = len(column)
    if n < SMALL_BLOCK:
        return _py.bucket_runs(column, log_base)
    values = _float_view(column)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        quotients = np.log(values + 1.0) / log_base
        distance = np.abs(quotients - np.rint(quotients))
        suspect = ~np.isfinite(quotients)
        suspect |= distance <= BUCKET_TOLERANCE * np.maximum(1.0, np.abs(quotients))
    keys = np.trunc(quotients)
    positions = np.nonzero(suspect)[0]
    if positions.size:
        keys[positions] = [
            bucket_of(value, log_base) for value in values[positions].tolist()
        ]
    first = keys[0]
    if (keys == first).all():
        return None, [(_bucket_id(first), n)]
    # Sorted stably by bucket, each bucket's first position is its first
    # appearance; the buckets' slices are then joined in that order.
    by_bucket = np.argsort(keys, kind="stable")
    sorted_keys = keys[by_bucket]
    changes = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate(([0], changes))
    stops = np.append(changes, n)
    appearance = np.argsort(by_bucket[starts])
    starts, stops = starts[appearance].tolist(), stops[appearance].tolist()
    order = np.concatenate(
        [by_bucket[start:stop] for start, stop in zip(starts, stops)]
    )
    return order.tolist(), [
        (_bucket_id(sorted_keys[start]), stop - start)
        for start, stop in zip(starts, stops)
    ]


def _bucket_id(key: float) -> _py.BucketId:
    """A bucket key as the reference returns it: ``int``, or ``math.inf``."""
    return int(key) if key != math.inf else math.inf


def interleave(columns: Sequence[Sequence[float]]) -> array:
    """Merge equally long columns row by row: ``out[i * k + j] = columns[j][i]``
    for ``k`` columns (a strided copy per column into one output buffer)."""
    n = len(columns[0])
    if n < SMALL_BLOCK:
        return _py.interleave(columns)
    k = len(columns)
    out = array("d", bytes(8 * n * k))
    view = np.frombuffer(out, dtype=np.float64)
    for j, col in enumerate(columns):
        view[j::k] = _float_view(col)
    return out


def combine_columns(
    spec: Sequence, left: Sequence[float], right: Sequence[float], local: float
) -> array:
    """Aggregate two equally long metric columns with a scalar local cost.

    Every branch issues exactly the operations of the corresponding
    :mod:`repro.costs.aggregation` formula in the same association order, so
    the results are bit-identical to the pure-Python backend (IEEE-754
    addition/multiplication/min/max are exactly rounded in both).
    """
    if len(left) < SMALL_BLOCK:
        return _py.combine_columns(spec, left, right, local)
    l = _float_view(left)
    r = _float_view(right)
    op = spec[0]
    if op == "sum":
        return _as_array((l + r) + local)
    if op == "max":
        return _as_array(np.maximum(np.maximum(l, r), local))
    if op == "pipeline_max":
        return _as_array(np.maximum(l, r) + local)
    if op == "min":
        return _as_array(np.minimum(l, r) + local)
    if op == "scaled_sum":
        return _as_array((spec[1] * l + spec[2] * r) + local)
    if op == "precision_loss":
        x = min(local, 1.0)
        lc = np.minimum(l, 1.0)
        rc = np.minimum(r, 1.0)
        # Same inclusion-exclusion expansion, in the same evaluation order,
        # as PrecisionLossAggregation.combine.
        loss = lc + rc + x - lc * rc - lc * x - rc * x + lc * rc * x
        return _as_array(np.minimum(1.0, np.maximum(0.0, loss)))
    raise ValueError(f"unknown aggregation spec {spec!r}")


def pareto_mask(columns: Columns, alive: array) -> List[bool]:
    """Per-live-row strict-dominance frontier mask, in slot order.

    Same lexicographic-sort + frontier-sweep semantics as the pure-Python
    reference, with the candidate-vs-frontier dominance broadcast chunked
    into fixed :data:`PARETO_TILE` x :data:`PARETO_TILE` tiles: peak temporary
    memory is bounded by the tile size, not by the block size, so blocks far
    beyond 4096 plans sweep without the naive ``O(n^2)`` mask blow-up.
    Results are bit-identical to the reference (``np.lexsort`` is stable,
    exactly like the Python tuple sort, so equal rows keep the same earliest
    representative).
    """
    n = len(alive)
    if n < SMALL_BLOCK:
        return _py.pareto_mask(columns, alive)
    live = np.nonzero(_alive_view(alive))[0]
    m = int(live.size)
    if m == 0:
        return []
    cols = [np.ascontiguousarray(_column_view(col)[live]) for col in columns]
    dims = len(cols)
    # np.lexsort sorts by the *last* key first; reverse for row-major order.
    order = np.lexsort(tuple(reversed(cols)))
    sorted_cols = [col[order] for col in cols]
    frontier = [np.empty(m, dtype=np.float64) for _ in range(dims)]
    fcount = 0
    keep_sorted = np.zeros(m, dtype=bool)
    for start in range(0, m, PARETO_TILE):
        stop = min(start + PARETO_TILE, m)
        width = stop - start
        tile = [col[start:stop] for col in sorted_cols]
        # Candidates dominated by the frontier accumulated in prior tiles,
        # computed tile-against-frontier-chunk so no temporary exceeds
        # PARETO_TILE**2 entries.
        dominated = np.zeros(width, dtype=bool)
        for fstart in range(0, fcount, PARETO_TILE):
            fstop = min(fstart + PARETO_TILE, fcount)
            block = np.ones((fstop - fstart, width), dtype=bool)
            for d in range(dims):
                np.logical_and(
                    block,
                    frontier[d][fstart:fstop, None] <= tile[d][None, :],
                    out=block,
                )
            np.logical_or(dominated, block.any(axis=0), out=dominated)
            if dominated.all():
                break
        # Within-tile sweep: rows may be dominated by frontier rows admitted
        # earlier in this same tile, which the broadcast above cannot see.
        base = fcount
        tile_vals = [col.tolist() for col in tile]
        dom_list = dominated.tolist()
        for j in range(width):
            if dom_list[j]:
                continue
            admitted = True
            for fi in range(base, fcount):
                for d in range(dims):
                    if frontier[d][fi] > tile_vals[d][j]:
                        break
                else:
                    admitted = False
                    break
            if not admitted:
                continue
            for d in range(dims):
                frontier[d][fcount] = tile_vals[d][j]
            keep_sorted[start + j] = True
            fcount += 1
    keep = np.zeros(m, dtype=bool)
    keep[order] = keep_sorted
    return keep.tolist()
