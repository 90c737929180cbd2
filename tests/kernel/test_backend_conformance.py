"""One conformance suite for every kernel backend, from one source of truth.

Every backend (pure Python, and numpy where it is installed) must
implement the full kernel op surface --
``leq_slots`` / ``geq_slots`` / ``first_leq`` / ``any_leq`` /
``covered_positions`` / ``scale_columns`` / ``take`` / ``combine_columns`` /
``bucket_runs`` / ``pareto_mask`` --
bit-identically.  This module pins that contract once, parametrized over the
backends that can load on this machine, instead of the per-backend test
copies it replaced: brute-force oracles over row tuples define "correct"
independently of any backend, hypothesis drives the edge cases (+inf,
tombstones, ties, empty blocks), and dedicated regression tests cover the
blocks far beyond 4096 rows where the numpy Pareto sweep must stay tiled.
"""

import math
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro import kernel
from repro.costs import aggregation as agg
from repro.costs.metrics import (
    MetricSet,
    aggregation_spec,
    extended_metric_set,
    paper_metric_set,
)
from repro.costs.vector import CostVector

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - depends on environment
    HAVE_NUMPY = False

#: Every backend importable on this machine; the suite runs the identical
#: assertions against each one.
BACKENDS = ("python",) + (("numpy",) if HAVE_NUMPY else ())

if HAVE_NUMPY:
    from repro.kernel.numpy_backend import SMALL_BLOCK
else:  # pragma: no cover - depends on environment
    SMALL_BLOCK = 16

AGGREGATIONS = [
    agg.SumAggregation(),
    agg.MaxAggregation(),
    agg.PipelineMaxAggregation(),
    agg.MinAggregation(),
    agg.ScaledSumAggregation(1.5, 2.0),
    agg.PrecisionLossAggregation(),
]

SIZES = (3, 17, 300)  # below and above the vectorised-path cutoffs


# ----------------------------------------------------------------------
# Case generators and oracles
# ----------------------------------------------------------------------
finite_or_inf = st.one_of(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    st.just(float("inf")),
)


@st.composite
def matrices(draw, min_rows=0, max_rows=60, min_dims=1, max_dims=4):
    dims = draw(st.integers(min_value=min_dims, max_value=max_dims))
    rows = draw(
        st.lists(
            st.tuples(*([finite_or_inf] * dims)), min_size=min_rows, max_size=max_rows
        )
    )
    alive = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    vector = draw(st.tuples(*([finite_or_inf] * dims)))
    # Duplicated rows make the pareto stable-tie contract observable.
    if len(rows) >= 2 and draw(st.booleans()):
        src = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        dst = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        rows[dst] = rows[src]
    columns = [array("d", (row[k] for row in rows)) for k in range(dims)]
    alive_flags = array("b", (1 if flag else 0 for flag in alive))
    return columns, alive_flags, vector, rows, alive


def oracle_leq(rows, alive, vector):
    return [
        i
        for i, row in enumerate(rows)
        if alive[i] and all(x <= v for x, v in zip(row, vector))
    ]


def oracle_geq(rows, alive, vector):
    return [
        i
        for i, row in enumerate(rows)
        if alive[i] and all(x >= v for x, v in zip(row, vector))
    ]


def oracle_pareto(rows, alive):
    """Brute-force O(n^2) strict-dominance frontier, in slot order.

    A live row is kept iff no other live row dominates it -- where "row j
    dominates row i" means component-wise ``<=`` and either strictly smaller
    somewhere or an identical row at an earlier slot (equal rows keep exactly
    the earliest representative).
    """
    live = [i for i in range(len(rows)) if alive[i]]

    def dominated(i):
        for j in live:
            if j == i:
                continue
            if all(a <= b for a, b in zip(rows[j], rows[i])) and (
                rows[j] != rows[i] or j < i
            ):
                return True
        return False

    return [not dominated(i) for i in live]


@st.composite
def row_blocks(draw, max_rows=40):
    """Two dense blocks of independent lengths (either may be empty), with
    ties and +inf."""
    dims = draw(st.integers(min_value=1, max_value=4))
    value = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), finite_or_inf)
    row = st.tuples(*([value] * dims))
    rows = draw(st.lists(row, max_size=max_rows))
    others_rows = draw(st.lists(row, max_size=max_rows))
    return dense(rows, dims), dense(others_rows, dims), rows, others_rows


def dense(rows, dims):
    return [array("d", (row[k] for row in rows)) for k in range(dims)]


def oracle_covered(rows, others_rows):
    return [
        i
        for i, other in enumerate(others_rows)
        if any(all(x <= y for x, y in zip(row, other)) for row in rows)
    ]


def make_column(size, seed, with_inf=False, upper=100.0):
    rng = random.Random(seed)
    values = [rng.uniform(0.0, upper) for _ in range(size)]
    if with_inf and size >= 4:
        values[1] = math.inf
        values[-2] = math.inf
    return array("d", values)


#: Row counts on both sides of the numpy backend's hand-off to the Python
#: loops (blocks below ``SMALL_BLOCK`` rows), plus the empty and one-row
#: blocks and one block well inside the vectorised path.
CUTOFF_SIZES = (0, 1, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1, 4 * SMALL_BLOCK)

#: Metric counts: the Python loops specialise one to three metrics and fall
#: back to a generic loop for more.
CUTOFF_DIMS = (1, 2, 3, 4)

#: Block lengths of the ``covered_positions`` cases: empty, one row, both
#: sides of the small-block cutoff, and one vectorised block.
COVER_SIZES = (0, 1, SMALL_BLOCK - 1, SMALL_BLOCK + 1, 64)


def cutoff_blocks():
    """Deterministic blocks for every (metric count, row count) pair.

    Values come from a handful of levels plus +inf, so ties and exact
    dominance occur; the last row duplicates the first, and every fifth row
    is a tombstone.
    """
    for dims in CUTOFF_DIMS:
        for size in CUTOFF_SIZES:
            rng = random.Random(1000 * dims + size)
            levels = [0.0, 1.0, 2.0, 3.0, math.inf]
            rows = [tuple(rng.choice(levels) for _ in range(dims)) for _ in range(size)]
            if size >= 2:
                rows[-1] = rows[0]
            alive = [i % 5 != 3 for i in range(size)]
            columns = [array("d", (row[k] for row in rows)) for k in range(dims)]
            alive_flags = array("b", (1 if flag else 0 for flag in alive))
            yield columns, alive_flags, rows, alive


def cutoff_vectors(dims):
    """Bound vectors from the tightest (all zeros) to the loosest (all +inf)."""
    return [
        (0.0,) * dims,
        (2.0,) * dims,
        tuple(float(k % 4) for k in range(dims)),
        (math.inf,) * dims,
    ]


# ----------------------------------------------------------------------
# Dominance-op conformance (property net, all backends)
# ----------------------------------------------------------------------
class TestDominanceOps:
    @settings(max_examples=200)
    @given(matrices())
    def test_leq_slots_match_oracle_on_every_backend(self, case):
        columns, alive_flags, vector, rows, alive = case
        expected = oracle_leq(rows, alive, vector)
        for backend in BACKENDS:
            with kernel.use_backend(backend):
                assert kernel.ops.leq_slots(columns, alive_flags, vector) == expected

    @settings(max_examples=200)
    @given(matrices())
    def test_geq_slots_match_oracle_on_every_backend(self, case):
        columns, alive_flags, vector, rows, alive = case
        expected = oracle_geq(rows, alive, vector)
        for backend in BACKENDS:
            with kernel.use_backend(backend):
                assert kernel.ops.geq_slots(columns, alive_flags, vector) == expected

    @settings(max_examples=200)
    @given(matrices())
    def test_first_leq_and_any_leq_match_oracle(self, case):
        columns, alive_flags, vector, rows, alive = case
        hits = oracle_leq(rows, alive, vector)
        expected_first = hits[0] if hits else -1
        for backend in BACKENDS:
            with kernel.use_backend(backend):
                assert kernel.ops.first_leq(columns, alive_flags, vector) == expected_first
                assert kernel.ops.any_leq(columns, alive_flags, vector) == bool(hits)

    @settings(max_examples=200)
    @given(row_blocks())
    def test_covered_positions_match_oracle_on_every_backend(self, case):
        columns, others, rows, others_rows = case
        expected = oracle_covered(rows, others_rows)
        for backend in BACKENDS:
            with kernel.use_backend(backend):
                assert kernel.ops.covered_positions(columns, others) == expected

    @settings(max_examples=200)
    @given(matrices())
    def test_pareto_mask_matches_oracle_on_every_backend(self, case):
        columns, alive_flags, _, rows, alive = case
        expected = oracle_pareto(rows, alive)
        for backend in BACKENDS:
            with kernel.use_backend(backend):
                assert kernel.ops.pareto_mask(columns, alive_flags) == expected

    @settings(max_examples=100)
    @given(
        matrices(),
        st.floats(min_value=1.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    )
    def test_scale_columns_is_bit_identical_across_backends(self, case, factor):
        columns, _, _, rows, _ = case
        with kernel.use_backend("python"):
            reference = kernel.ops.scale_columns(columns, factor)
        for backend in BACKENDS:
            with kernel.use_backend(backend):
                scaled = kernel.ops.scale_columns(columns, factor)
            assert [col.tobytes() for col in scaled] == [
                col.tobytes() for col in reference
            ]

    def test_large_block_exercises_vectorised_path(self):
        # 64 rows is above every backend's small-block cutoff.
        rows = [(float(i % 7), float(i % 5)) for i in range(64)]
        columns = [array("d", (r[k] for r in rows)) for k in range(2)]
        alive = array("b", [1] * len(rows))
        expected = oracle_leq(rows, alive, (3.0, 2.0))
        for backend in BACKENDS:
            with kernel.use_backend(backend):
                assert kernel.ops.leq_slots(columns, alive, (3.0, 2.0)) == expected


# ----------------------------------------------------------------------
# Every op on both sides of the small-block cutoff (all backends)
# ----------------------------------------------------------------------
class TestCutoffBoundaries:
    """Each op, on deterministic blocks just below, at and just above
    ``SMALL_BLOCK`` rows for every metric count the Python loops specialise,
    against the brute-force oracles.  The property net above may or may not
    draw these exact shapes; here every branch of every backend runs on
    every pass."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_leq_slots(self, backend):
        with kernel.use_backend(backend):
            for columns, alive_flags, rows, alive in cutoff_blocks():
                for vector in cutoff_vectors(len(columns)):
                    assert kernel.ops.leq_slots(columns, alive_flags, vector) == (
                        oracle_leq(rows, alive, vector)
                    ), (len(columns), len(rows), vector)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_geq_slots(self, backend):
        with kernel.use_backend(backend):
            for columns, alive_flags, rows, alive in cutoff_blocks():
                for vector in cutoff_vectors(len(columns)):
                    assert kernel.ops.geq_slots(columns, alive_flags, vector) == (
                        oracle_geq(rows, alive, vector)
                    ), (len(columns), len(rows), vector)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_first_leq(self, backend):
        with kernel.use_backend(backend):
            for columns, alive_flags, rows, alive in cutoff_blocks():
                for vector in cutoff_vectors(len(columns)):
                    hits = oracle_leq(rows, alive, vector)
                    assert kernel.ops.first_leq(columns, alive_flags, vector) == (
                        hits[0] if hits else -1
                    ), (len(columns), len(rows), vector)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_any_leq(self, backend):
        with kernel.use_backend(backend):
            for columns, alive_flags, rows, alive in cutoff_blocks():
                for vector in cutoff_vectors(len(columns)):
                    assert kernel.ops.any_leq(columns, alive_flags, vector) == bool(
                        oracle_leq(rows, alive, vector)
                    ), (len(columns), len(rows), vector)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_covered_positions(self, backend):
        levels = [0.0, 1.0, 2.0, 3.0, math.inf, -math.inf]
        with kernel.use_backend(backend):
            for dims in (1, 2, 3):
                for size in COVER_SIZES:
                    rng = random.Random(100 * dims + size)
                    others_rows = [
                        tuple(rng.choice(levels) for _ in range(dims))
                        for _ in range(size)
                    ]
                    others = dense(others_rows, dims)
                    # An empty block, then copies of the first positions
                    # (ties) plus as many random rows, +inf and -inf included.
                    for count in (0, 1, 2, 5):
                        rows = others_rows[:count] + [
                            tuple(rng.choice(levels) for _ in range(dims))
                            for _ in range(count)
                        ]
                        assert kernel.ops.covered_positions(
                            dense(rows, dims), others
                        ) == oracle_covered(rows, others_rows), (dims, size, count)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pareto_mask(self, backend):
        with kernel.use_backend(backend):
            for columns, alive_flags, rows, alive in cutoff_blocks():
                assert kernel.ops.pareto_mask(columns, alive_flags) == (
                    oracle_pareto(rows, alive)
                ), (len(columns), len(rows))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scale_columns(self, backend):
        with kernel.use_backend(backend):
            for columns, _, _, _ in cutoff_blocks():
                for factor in (1.0, 1.05, 2.5):
                    scaled = kernel.ops.scale_columns(columns, factor)
                    assert [col.tobytes() for col in scaled] == [
                        array("d", (value * factor for value in col)).tobytes()
                        for col in columns
                    ], (len(columns), len(columns[0]), factor)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_take(self, backend):
        with kernel.use_backend(backend):
            for columns, _, rows, _ in cutoff_blocks():
                # As many indices as rows, out of order and with repeats.
                indices = [(7 * i) % len(rows) for i in range(len(rows))]
                gathered = kernel.ops.take(columns, indices)
                assert [list(col) for col in gathered] == [
                    [col[i] for i in indices] for col in columns
                ], (len(columns), len(rows))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("width", (1, 2, 4))
    def test_interleave(self, backend, width):
        with kernel.use_backend(backend):
            for size in CUTOFF_SIZES:
                columns = [
                    make_column(size, 20 + j, with_inf=True) for j in range(width)
                ]
                expected = array(
                    "d", (columns[j][i] for i in range(size) for j in range(width))
                ).tobytes()
                # Array columns, and the plain lists an aggregation without a
                # kernel spec produces.
                for given in (columns, [list(col) for col in columns]):
                    merged = kernel.ops.interleave(given)
                    assert isinstance(merged, array), (width, size)
                    assert merged.tobytes() == expected, (width, size)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_combine_columns(self, backend):
        with kernel.use_backend(backend):
            for size in CUTOFF_SIZES:
                for aggregation in AGGREGATIONS:
                    bounded = isinstance(aggregation, agg.PrecisionLossAggregation)
                    upper = 2.0 if bounded else 100.0
                    left = make_column(size, 7, with_inf=not bounded, upper=upper)
                    right = make_column(size, 8, with_inf=not bounded, upper=upper)
                    spec = aggregation_spec(aggregation)
                    result = kernel.ops.combine_columns(spec, left, right, 0.25)
                    assert list(result) == [
                        aggregation.combine(l, r, 0.25) for l, r in zip(left, right)
                    ], (aggregation.name, size)


# ----------------------------------------------------------------------
# Pareto sweep on blocks far beyond 4096 rows (tiled-broadcast regression)
# ----------------------------------------------------------------------
class TestParetoLargeBlocks:
    """The numpy sweep tiles the candidate-vs-frontier broadcast; these
    blocks cross several tile boundaries (exact multiples and off-by-a-prime
    sizes) so a regression in the tile stitching cannot hide, and peak
    memory stays bounded by the tile size rather than ``O(n^2)``."""

    @pytest.mark.slow
    @pytest.mark.parametrize("size", [10240, 10243])  # 10*TILE, non-multiple
    def test_far_beyond_4096_bit_identical_across_backends(self, size):
        rng = random.Random(size)
        dims = 3
        # Clustered values produce long runs of primary-key ties plus exact
        # duplicate rows -- the hard cases of the sorted sweep.
        choices = [float(v) for v in range(40)] + [math.inf]
        columns = [
            array("d", (rng.choice(choices) for _ in range(size)))
            for _ in range(dims)
        ]
        alive = array("b", (1 if rng.random() > 0.05 else 0 for _ in range(size)))
        with kernel.use_backend("python"):
            expected = kernel.ops.pareto_mask(columns, alive)
        for backend in BACKENDS[1:]:
            with kernel.use_backend(backend):
                assert kernel.ops.pareto_mask(columns, alive) == expected, backend

    def test_tile_boundary_dominance_is_seen(self):
        if not HAVE_NUMPY:
            pytest.skip("numpy not available")
        from repro.kernel import numpy_backend

        # A dominating row in tile 0 must eliminate rows in later tiles, and
        # a within-tile dominator must eliminate rows admitted after it in
        # the same tile.
        size = numpy_backend.PARETO_TILE * 2 + 5
        columns = [
            array("d", range(size)),
            array("d", [float(size - i) for i in range(size)]),
        ]
        # Make one early row dominate everything after the first tile.
        columns[0][3] = 0.0
        columns[1][3] = 0.0
        alive = array("b", [1] * size)
        with kernel.use_backend("python"):
            expected = kernel.ops.pareto_mask(columns, alive)
        with kernel.use_backend("numpy"):
            assert kernel.ops.pareto_mask(columns, alive) == expected


class TestCoveredPositionsTiles:
    """The numpy cover pass broadcasts rows against positions in tiles; a
    row in one tile must cover positions in every other."""

    def test_positions_beyond_the_first_tile(self):
        if not HAVE_NUMPY:
            pytest.skip("numpy not available")
        from repro.kernel import numpy_backend

        size = numpy_backend.PARETO_TILE * 2 + 5
        others_rows = [(float(i % 97), float(size - i)) for i in range(size)]
        rows = [(50.0, 1000.0), (0.0, 2040.0), (96.0, 0.0)]
        expected = oracle_covered(rows, others_rows)
        assert 0 < len(expected) < size
        with kernel.use_backend("numpy"):
            assert kernel.ops.covered_positions(
                dense(rows, 2), dense(others_rows, 2)
            ) == expected

    def test_both_tile_axes_are_stitched(self, monkeypatch):
        if not HAVE_NUMPY:
            pytest.skip("numpy not available")
        from repro.kernel import numpy_backend

        monkeypatch.setattr(numpy_backend, "PARETO_TILE", SMALL_BLOCK)
        rng = random.Random(3)
        levels = [0.0, 1.0, 2.0, 3.0, math.inf]
        others_rows = [
            tuple(rng.choice(levels) for _ in range(3))
            for _ in range(3 * SMALL_BLOCK + 5)
        ]
        # The first row tile alone covers some positions, the second row
        # tile others.
        rows = [(1.0, 0.0, 2.0)] + [(3.0, 3.0, 0.0)] * (SMALL_BLOCK + 2)
        expected = oracle_covered(rows, others_rows)
        assert 0 < len(expected) < len(others_rows)
        with kernel.use_backend("numpy"):
            assert kernel.ops.covered_positions(
                dense(rows, 3), dense(others_rows, 3)
            ) == expected


class TestCoveredPositionsProperties:
    """Properties of ``covered_positions`` beyond the oracle cases."""

    @staticmethod
    def blocks(dims, rows_count, positions, seed):
        rng = random.Random(seed)
        levels = [0.0, 1.0, 2.0, 3.0, 5.0, math.inf]
        rows = [tuple(rng.choice(levels) for _ in range(dims)) for _ in range(rows_count)]
        others_rows = [
            tuple(rng.choice(levels) for _ in range(dims)) for _ in range(positions)
        ]
        return rows, others_rows

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_row_order_does_not_change_the_answer(self, backend):
        # The python op starts each position at the row that covered the
        # previous one; which row that is must not change the result.
        with kernel.use_backend(backend):
            for dims in (1, 2, 3, 4):
                rows, others_rows = self.blocks(dims, 9, 4 * SMALL_BLOCK, dims)
                others = dense(others_rows, dims)
                expected = kernel.ops.covered_positions(dense(rows, dims), others)
                for shift in range(1, len(rows)):
                    rotated = rows[shift:] + rows[:shift]
                    assert kernel.ops.covered_positions(
                        dense(rotated, dims), others
                    ) == expected, (dims, shift)
                    assert kernel.ops.covered_positions(
                        dense(rotated[::-1], dims), others
                    ) == expected, (dims, shift)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_row_equals_geq_slots(self, backend):
        # With one row, "some row covers position i" is "position i >= row".
        with kernel.use_backend(backend):
            for dims in (1, 2, 3, 4):
                rows, others_rows = self.blocks(dims, 1, 4 * SMALL_BLOCK, 10 + dims)
                others = dense(others_rows, dims)
                alive = array("b", [1] * len(others_rows))
                assert kernel.ops.covered_positions(
                    dense(rows, dims), others
                ) == kernel.ops.geq_slots(others, alive, rows[0]), dims

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_generic_path_beyond_three_metrics(self, backend):
        with kernel.use_backend(backend):
            for dims in (4, 5):
                for positions in (SMALL_BLOCK - 1, 4 * SMALL_BLOCK):
                    rows, others_rows = self.blocks(dims, 6, positions, 20 + dims)
                    rows.append(others_rows[-1])  # a tie
                    assert kernel.ops.covered_positions(
                        dense(rows, dims), dense(others_rows, dims)
                    ) == oracle_covered(rows, others_rows), (dims, positions)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_many_rows_against_few_positions(self, backend):
        with kernel.use_backend(backend):
            for positions in (SMALL_BLOCK - 1, SMALL_BLOCK + 1):
                rows, others_rows = self.blocks(3, 3 * SMALL_BLOCK, positions, 40)
                assert kernel.ops.covered_positions(
                    dense(rows, 3), dense(others_rows, 3)
                ) == oracle_covered(rows, others_rows), positions

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_inputs_are_left_unchanged(self, backend):
        rows, others_rows = self.blocks(3, 20, 4 * SMALL_BLOCK, 30)
        columns, others = dense(rows, 3), dense(others_rows, 3)
        before = [column.tobytes() for column in columns + others]
        with kernel.use_backend(backend):
            kernel.ops.covered_positions(columns, others)
        assert [column.tobytes() for column in columns + others] == before


# ----------------------------------------------------------------------
# Block-costing ops: combine_columns / take (all backends)
# ----------------------------------------------------------------------
class TestCombineColumns:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("aggregation", AGGREGATIONS, ids=lambda a: a.name)
    @pytest.mark.parametrize("size", SIZES)
    def test_matches_scalar_reference(self, backend, aggregation, size):
        upper = 2.0 if isinstance(aggregation, agg.PrecisionLossAggregation) else 100.0
        left = make_column(size, seed=1, upper=upper)
        right = make_column(size, seed=2, upper=upper)
        local = 0.75
        spec = aggregation_spec(aggregation)
        assert spec is not None
        expected = [aggregation.combine(l, r, local) for l, r in zip(left, right)]
        with kernel.use_backend(backend):
            result = list(kernel.ops.combine_columns(spec, left, right, local))
        assert result == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "aggregation",
        [a for a in AGGREGATIONS if not isinstance(a, agg.PrecisionLossAggregation)],
        ids=lambda a: a.name,
    )
    def test_infinite_components(self, backend, aggregation):
        left = make_column(32, seed=3, with_inf=True)
        right = make_column(32, seed=4, with_inf=True)
        spec = aggregation_spec(aggregation)
        expected = [aggregation.combine(l, r, 1.0) for l, r in zip(left, right)]
        with kernel.use_backend(backend):
            result = list(kernel.ops.combine_columns(spec, left, right, 1.0))
        assert result == expected

    def test_backends_bit_identical(self):
        if len(BACKENDS) < 2:
            pytest.skip("only the python backend is available")
        for aggregation in AGGREGATIONS:
            upper = 3.0 if isinstance(aggregation, agg.PrecisionLossAggregation) else 1e9
            left = make_column(257, seed=5, upper=upper)
            right = make_column(257, seed=6, upper=upper)
            spec = aggregation_spec(aggregation)
            results = {}
            for backend in BACKENDS:
                with kernel.use_backend(backend):
                    results[backend] = kernel.ops.combine_columns(
                        spec, left, right, 0.125
                    ).tobytes()
            assert len(set(results.values())) == 1, (aggregation.name, results.keys())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unknown_spec_rejected(self, backend):
        with kernel.use_backend(backend):
            with pytest.raises(ValueError):
                kernel.ops.combine_columns(
                    ("bogus",), array("d", [1.0] * 32), array("d", [1.0] * 32), 0.0
                )


class TestTake:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("size", SIZES)
    def test_gathers_rows_in_order(self, backend, size):
        columns = [make_column(size, seed=d, with_inf=True) for d in range(3)]
        rng = random.Random(9)
        indices = [rng.randrange(size) for _ in range(size * 2)]
        with kernel.use_backend(backend):
            gathered = kernel.ops.take(columns, indices)
        assert [list(col) for col in gathered] == [
            [col[i] for i in indices] for col in columns
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_indices(self, backend):
        columns = [make_column(8, seed=1)]
        with kernel.use_backend(backend):
            assert [list(c) for c in kernel.ops.take(columns, [])] == [[]]


class TestMetricSetCombineColumns:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "metric_set",
        [paper_metric_set(), extended_metric_set(7)],
        ids=["paper", "extended7"],
    )
    def test_matches_per_row_combine(self, backend, metric_set):
        dims = metric_set.dimensions
        rng = random.Random(11)
        rows = 40
        left_rows = [
            CostVector([rng.uniform(0.0, 50.0) for _ in range(dims)])
            for _ in range(rows)
        ]
        right_rows = [
            CostVector([rng.uniform(0.0, 50.0) for _ in range(dims)])
            for _ in range(rows)
        ]
        local = CostVector([rng.uniform(0.0, 5.0) for _ in range(dims)])
        left_columns = [
            array("d", (row[d] for row in left_rows)) for d in range(dims)
        ]
        right_columns = [
            array("d", (row[d] for row in right_rows)) for d in range(dims)
        ]
        with kernel.use_backend(backend):
            combined = metric_set.combine_columns(left_columns, right_columns, local)
        for index in range(rows):
            expected = metric_set.combine(left_rows[index], right_rows[index], local)
            actual = tuple(combined[d][index] for d in range(dims))
            assert actual == tuple(expected)

    def test_unknown_aggregation_falls_back_to_per_element_loop(self):
        class Weird(agg.AggregationFunction):
            name = "weird"

            def combine(self, left, right, local):
                return left + 2.0 * right + local

        metric = __import__("repro.costs.metrics", fromlist=["Metric"]).Metric(
            name="weird", unit="u", aggregation=Weird()
        )
        assert aggregation_spec(Weird()) is None
        metric_set = MetricSet([metric])
        combined = metric_set.combine_columns(
            [array("d", [1.0, 2.0])], [array("d", [3.0, 4.0])], CostVector([0.5])
        )
        assert list(combined[0]) == [1.0 + 6.0 + 0.5, 2.0 + 8.0 + 0.5]

    def test_dimension_mismatch_rejected(self):
        metric_set = paper_metric_set()
        with pytest.raises(ValueError):
            metric_set.combine_columns(
                [array("d", [1.0])], [array("d", [1.0])], CostVector([0.0, 0.0, 0.0])
            )


# ----------------------------------------------------------------------
# bucket_runs: the plan index's bucket ids and grouping of a fresh block
# ----------------------------------------------------------------------
def bucket_edge_values(base):
    """``base**k - 1`` for k up to 60 with both neighbours, plus 0.0, a
    subnormal, 1e308 and +inf: every value a truncated log quotient can
    flip on, and the extremes."""
    values = [0.0, 5e-324, 1e308, math.inf]
    for k in range(61):
        edge = base**k - 1.0
        values += [
            math.nextafter(edge, -math.inf),
            edge,
            math.nextafter(edge, math.inf),
        ]
    return values


def bucket_block(base, size):
    rng = random.Random(size)
    values = bucket_edge_values(base)
    if size >= len(values):
        block = values + [rng.choice(values) for _ in range(size - len(values))]
        rng.shuffle(block)
    else:
        block = [rng.choice(values) for _ in range(size)]
    return array("d", block)


def bucket_runs_oracle(column, log_base):
    """Today's per-plan formula and first-appearance grouping, by brute force."""
    from repro.core.index import INFINITE_BUCKET

    groups = {}
    for position, value in enumerate(column):
        bucket_id = (
            INFINITE_BUCKET
            if math.isinf(value)
            else int(math.log(value + 1.0) / log_base)
        )
        groups.setdefault(bucket_id, []).append(position)
    order = [position for group in groups.values() for position in group]
    runs = [(bucket_id, len(group)) for bucket_id, group in groups.items()]
    return (order if len(groups) > 1 else None), runs


class TestBucketRuns:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("cell_base", (2.0, 10.0, 1.5))
    @pytest.mark.parametrize("size", (1, 15, 16, 5000))
    def test_matches_the_per_plan_formula(self, backend, cell_base, size):
        column = bucket_block(cell_base, size)
        log_base = math.log(cell_base)
        with kernel.use_backend(backend):
            order, runs = kernel.ops.bucket_runs(column, log_base)
        assert (order, runs) == bucket_runs_oracle(column, log_base)
        for bucket_id, _ in runs:
            assert type(bucket_id) is int or bucket_id == math.inf
        # Each position lands in the run of its own bucket.
        positions = order if order is not None else range(size)
        run_ids = [bucket_id for bucket_id, count in runs for _ in range(count)]
        for position, bucket_id in zip(positions, run_ids):
            assert kernel.ops.bucket_of(column[position], log_base) == bucket_id

    @pytest.mark.parametrize("cell_base", (2.0, 10.0, 1.5))
    def test_backends_agree_on_every_edge_value(self, cell_base):
        column = array("d", bucket_edge_values(cell_base) * 3)
        log_base = math.log(cell_base)
        answers = []
        for backend in BACKENDS:
            with kernel.use_backend(backend):
                answers.append(kernel.ops.bucket_runs(column, log_base))
        assert all(answer == answers[0] for answer in answers)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_infinities_share_the_sentinel_bucket(self, backend):
        from repro.core.index import INFINITE_BUCKET

        column = array("d", [math.inf, 1.0, -math.inf] * 8)
        with kernel.use_backend(backend):
            order, runs = kernel.ops.bucket_runs(column, math.log(2.0))
        assert runs == [(INFINITE_BUCKET, 16), (1, 8)]
        assert order == [p for p in range(24) if p % 3 != 1] + list(range(1, 24, 3))

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy backend not installed")
    @pytest.mark.parametrize("direction", (-math.inf, math.inf))
    def test_numpy_recomputes_quotients_next_to_an_integer(
        self, monkeypatch, direction
    ):
        # np.log may differ from math.log in the last bit; simulate that on
        # every value, which moves each exact quotient off its integer.
        real_log = numpy.log
        monkeypatch.setattr(
            numpy, "log", lambda values: numpy.nextafter(real_log(values), direction)
        )
        column = bucket_block(2.0, 5000)
        with kernel.use_backend("numpy"):
            answer = kernel.ops.bucket_runs(column, math.log(2.0))
        assert answer == bucket_runs_oracle(column, math.log(2.0))
