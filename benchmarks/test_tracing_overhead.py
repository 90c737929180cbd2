"""Zero-overhead and bit-identity guarantees of the span tracer.

The ``tracing`` feature defaults *off* and promises two hard properties:

1. **Disabled-tracer overhead below the noise floor.**  Measured on the
   4096-plan dominance block (the largest size of the kernel dominance
   benchmark): the block filter wrapped in a disabled ``span()`` — exactly
   how :func:`repro.core.pruning.prune_all_ids` wraps its kernel calls —
   must add at most 10% to the bare call, taken as the median difference of
   back-to-back bare and wrapped calls.  A separate
   microbenchmark bounds the per-call cost of a disabled span as a multiple
   of the ``flags.enabled("tracing")`` lookup it makes, timed in the same
   loop, so that a regression of the no-op path as small as 1 us fails.

2. **Traced frontiers are bit-identical to untraced ones**, on every kernel
   backend available in this environment — tracing observes, never steers.

Results are persisted to ``results/tracing_overhead.txt``.
"""

from __future__ import annotations

import random
import statistics
import time

import pytest

from conftest import persist_result
from repro import flags, kernel
from repro.api import open_session
from repro.api.request import OptimizeRequest
from repro.bench.experiments import ExperimentResult
from repro.costs.matrix import CostMatrix
from repro.costs.vector import CostVector
from repro.obs import trace as obs_trace

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - depends on environment
    HAVE_NUMPY = False

#: The largest block of the kernel dominance benchmark.
SIZE = 4096
DIMS = 3
#: Bursts timed per side of the disabled-span microbenchmark.
SAMPLES = 7
#: Back-to-back (bare, wrapped) call pairs of the noise-floor check.
PAIRS = 105
#: A disabled span may cost at most this many bare ``flags.enabled`` lookups.
#: On a 2-vCPU VM (CPython 3.11) the ratio reads 7.7-9.6 (about 0.85 us
#: against 0.1 us); a 1 us busy-wait added to the no-op path lifts it to 15-28.
MAX_SPAN_TO_LOOKUP_RATIO = 12.0

BACKENDS = ("python",) + (("numpy",) if HAVE_NUMPY else ())


def timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


@pytest.fixture(scope="module")
def dominance_block():
    rng = random.Random(7)
    costs = [
        CostVector([rng.uniform(0.0, 100.0) for _ in range(DIMS)])
        for _ in range(SIZE)
    ]
    return CostMatrix.from_vectors(costs), CostVector([70.0] * DIMS)


@pytest.fixture(scope="module")
def overhead_rows():
    return []


def test_tracing_defaults_off():
    assert not flags.enabled("tracing")


def test_disabled_span_call_is_cheap(overhead_rows):
    """A disabled span costs a small multiple of the flag lookup it makes.

    Bursts of spans and of bare lookups alternate, and each keeps its best
    burst, so a slow or busy machine slows both alike and the ratio holds.
    """
    assert not flags.enabled("tracing")
    calls = 20_000

    def spans():
        for _ in range(calls):
            with obs_trace.span("bench.noop", block_size=SIZE):
                pass

    def lookups():
        for _ in range(calls):
            flags.enabled("tracing")

    span_best = lookup_best = float("inf")
    for _ in range(SAMPLES):
        span_best = min(span_best, timed(spans))
        lookup_best = min(lookup_best, timed(lookups))
    ratio = span_best / lookup_best
    overhead_rows.append(
        {
            "row": "micro",
            "disabled_span_ns_per_call": span_best / calls * 1e9,
            "flag_lookup_ns_per_call": lookup_best / calls * 1e9,
            "span_to_lookup_ratio": ratio,
        }
    )
    assert ratio < MAX_SPAN_TO_LOOKUP_RATIO, (
        f"a disabled span costs {span_best / calls * 1e6:.2f} us/call, "
        f"{ratio:.1f}x the flag lookup (bound {MAX_SPAN_TO_LOOKUP_RATIO}x): "
        "the no-op path has regressed"
    )
    assert len(obs_trace.tracer()) == 0, "disabled spans must record nothing"


def test_disabled_overhead_below_noise_floor(dominance_block, overhead_rows):
    """The pruning-style span wrapper adds at most 10% to the bare call.

    Bare and wrapped calls run back to back in pairs, alternating which goes
    first, and the wrapper's cost is the median of the per-pair differences:
    both calls of a pair see the same machine state.  The two sides' minima,
    taken apart, are extremes of separate samples and drift apart by as much
    as the band itself: with no regression, in about 1% of isolated runs on a
    2-vCPU VM, and more often inside a full suite run.
    """
    assert not flags.enabled("tracing")
    matrix, bounds = dominance_block

    def bare():
        matrix.dominated_slots(bounds)

    def wrapped():
        with obs_trace.span("kernel.block", op="dominated_slots", block_size=SIZE):
            matrix.dominated_slots(bounds)

    added = []
    floor = wrapped_best = float("inf")
    for pair in range(PAIRS):
        if pair % 2:
            wrapped_seconds = timed(wrapped)
            bare_seconds = timed(bare)
        else:
            bare_seconds = timed(bare)
            wrapped_seconds = timed(wrapped)
        floor = min(floor, bare_seconds)
        wrapped_best = min(wrapped_best, wrapped_seconds)
        added.append(wrapped_seconds - bare_seconds)
    added_median = statistics.median(added)
    # A fixed 10% band: a band widened by the spread of the bare samples lets
    # one slow sample hide a real regression.
    allowance = 0.10 * floor
    overhead_rows.append(
        {
            "row": "noise_floor",
            "block_size": SIZE,
            "bare_best_seconds": floor,
            "wrapped_best_seconds": wrapped_best,
            "added_median_seconds": added_median,
        }
    )
    assert added_median <= allowance, (
        f"disabled-span wrapper added {added_median * 1e6:.1f} us (median of "
        f"{len(added)} back-to-back pairs) to the {SIZE}-plan dominance block "
        f"(bound: 10% of the bare call, {allowance * 1e6:.1f} us)"
    )


def _frontier_rows(spec: str, traced: bool):
    with flags.overrides(tracing=traced):
        result = open_session(
            OptimizeRequest(workload=spec, algorithm="iama", levels=4)
        ).run()
    return [[value.hex() for value in summary.cost] for summary in result.frontier]


@pytest.mark.parametrize("backend", BACKENDS)
def test_traced_frontiers_bit_identical(backend, overhead_rows):
    spec = "gen:star:4:2"
    with kernel.use_backend(backend):
        untraced = _frontier_rows(spec, traced=False)
        traced = _frontier_rows(spec, traced=True)
    overhead_rows.append(
        {
            "row": "bit_identity",
            "backend": backend,
            "frontier_size": len(untraced),
            "identical": traced == untraced,
        }
    )
    assert traced == untraced, (
        f"backend {backend}: tracing changed the frontier — the observer "
        "steered the system"
    )


def test_persist(overhead_rows):
    result = ExperimentResult(
        name="tracing_overhead",
        description=(
            "Disabled-tracer overhead (per-call cost against a bare flag "
            "lookup, and the 4096-plan dominance noise-floor check) and "
            "traced-vs-untraced frontier bit-identity per kernel backend."
        ),
        rows=list(overhead_rows),
    )
    path = persist_result(result)
    assert path.exists()
