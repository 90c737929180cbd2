"""E-kernel: micro-benchmark of the batched dominance kernel.

Compares frontier retrieval through the batched kernel (both backends: pure
Python and numpy) against the scalar reference -- the per-plan
``dominates()`` loop that the plan index used before the kernel refactor --
at the block sizes the Figure-3/4 TPC-H sweeps produce (hundreds to a few
thousand plans per table set at the fine target precision).

Three layers are measured:

* raw block filtering: ``CostMatrix.dominated_slots`` vs. a scalar loop
  over ``CostVector`` pairs, plus the prune-block cover pass
  (``kernel.ops.covered_positions``: the block against 64 incumbent rows),
* the Pareto frontier sweep: ``CostMatrix.pareto_mask`` across backends, and
* end-to-end index retrieval: ``PlanIndex.retrieve_ids`` vs. a scalar scan
  over ``PlanIndex.all_ids()``.

All paths must return identical results.  Acceptance bar at the largest
block (4096 plans): the numpy filter stays >= 3x over the scalar loop.
Results are persisted to ``results/kernel_dominance.txt``.
"""

from __future__ import annotations

import os
import random
import time
from array import array
from pathlib import Path

import pytest

from repro import kernel
from repro.core.index import PlanIndex
from repro.costs.dominance import dominates
from repro.costs.matrix import CostMatrix
from repro.costs.vector import CostVector
from repro.plans.arena import PlanArena
from repro.plans.operators import ScanOperator

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - depends on environment
    HAVE_NUMPY = False

RESULTS_PATH = Path(__file__).resolve().parent.parent / "results" / "kernel_dominance.txt"

#: Block sizes bracketing the per-table-set plan counts of the Figure-3/4
#: workloads (TPC-H join blocks, fine target precision).
SIZES = (256, 1024, 4096)
DIMS = 3  # the paper's metric count (time, cores, precision loss)
REPEATS = 5
#: Result plans one prune block is compared against (the most a seed-1
#: ``anytime_mix`` round meets is 59).
INCUMBENTS = 64

#: Kernel backends measured on this machine, in reporting order.
BACKENDS = ("python",) + (("numpy",) if HAVE_NUMPY else ())


def make_costs(count: int, seed: int = 7) -> list:
    rng = random.Random(seed)
    return [
        CostVector([rng.uniform(0.0, 100.0) for _ in range(DIMS)])
        for _ in range(count)
    ]


def best_time(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def scalar_filter(costs, bounds):
    return [i for i, cost in enumerate(costs) if dominates(cost, bounds)]


def measure_block_filter(size: int) -> dict:
    """Raw kernel block filter vs. scalar dominates() loop, plus the cover
    pass of a prune block of ``size`` plans against 64 incumbents."""
    costs = make_costs(size)
    # Selects roughly a third of uniformly drawn blocks.
    bounds = CostVector([70.0] * DIMS)
    matrix = CostMatrix.from_vectors(costs)
    expected = scalar_filter(costs, bounds)
    # Cheap incumbents (the low corner of the cost range) against the
    # block's alpha-scaled costs, as in Algorithm 3 line 7.
    incumbents = [
        array("d", (cost[k] * 0.5 for cost in make_costs(INCUMBENTS, seed=3)))
        for k in range(DIMS)
    ]
    block = [array("d", (cost[k] * 1.05 for cost in costs)) for k in range(DIMS)]
    covered = None

    row = {"size": size, "scalar_seconds": best_time(lambda: scalar_filter(costs, bounds))}
    for backend in BACKENDS:
        with kernel.use_backend(backend):
            assert matrix.dominated_slots(bounds) == expected
            positions = kernel.ops.covered_positions(incumbents, block)
            if covered is None:
                covered = positions
            assert positions == covered, f"{backend} cover pass diverged"
            row[f"{backend}_seconds"] = best_time(
                lambda: matrix.dominated_slots(bounds)
            )
            row[f"{backend}_speedup"] = row["scalar_seconds"] / row[f"{backend}_seconds"]
            row[f"{backend}_cover_seconds"] = best_time(
                lambda: kernel.ops.covered_positions(incumbents, block)
            )
    assert 0 < len(covered) < size
    return row


def measure_pareto_sweep(size: int) -> dict:
    """Pareto frontier sweep (CostMatrix.pareto_mask) across backends.

    The heaviest dominance computation over a block: every backend must
    produce the identical mask.
    """
    matrix = CostMatrix.from_vectors(make_costs(size, seed=11))
    expected = None
    row = {"size": size}
    for backend in BACKENDS:
        with kernel.use_backend(backend):
            mask = matrix.pareto_mask()
            if expected is None:
                expected = mask
            else:
                assert mask == expected, f"{backend} pareto mask diverged"
            row[f"{backend}_seconds"] = best_time(lambda: matrix.pareto_mask())
    row["frontier_size"] = sum(expected)
    if HAVE_NUMPY:
        row["python_vs_numpy"] = row["numpy_seconds"] / row["python_seconds"]
    return row


def measure_index_retrieval(size: int) -> dict:
    """End-to-end PlanIndex.retrieve_ids vs. a scalar scan of the same index."""
    costs = make_costs(size, seed=13)
    bounds = CostVector([70.0] * DIMS)

    def scalar_retrieve(index, arena):
        return [
            plan_id
            for plan_id in index.all_ids()
            if dominates(arena.plan(plan_id).cost, bounds)
        ]

    row = {"size": size}
    for backend in BACKENDS:
        with kernel.use_backend(backend):
            index = PlanIndex()
            arena = PlanArena(DIMS)
            scan = ScanOperator("seq_scan")
            for cost in costs:
                index.insert_id(arena.allocate_scan("t", scan, cost), 0, arena)
            expected = sorted(scalar_retrieve(index, arena))
            assert sorted(index.retrieve_ids(bounds, 0)) == expected
            scalar_seconds = best_time(lambda: scalar_retrieve(index, arena))
            kernel_seconds = best_time(lambda: index.retrieve_ids(bounds, 0))
            row.setdefault("scalar_seconds", scalar_seconds)
            row[f"{backend}_seconds"] = kernel_seconds
            row[f"{backend}_speedup"] = scalar_seconds / kernel_seconds
    return row


def format_table(title: str, rows: list) -> str:
    keys = [k for k in rows[0] if k != "size"]
    header = f"## {title}\n" + " | ".join(["size"] + keys)
    lines = [header, " | ".join(["----"] * (len(keys) + 1))]
    for row in rows:
        cells = [str(row["size"])]
        for key in keys:
            value = row[key]
            if "speedup" in key or "vs_numpy" in key:
                cells.append(f"{value:.3g}")
            elif key == "frontier_size":
                cells.append(str(value))
            else:
                cells.append(f"{value * 1e6:.1f}us")
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def test_kernel_dominance_speedup():
    block_rows = [measure_block_filter(size) for size in SIZES]
    pareto_rows = [measure_pareto_sweep(size) for size in SIZES]
    index_rows = [measure_index_retrieval(size) for size in SIZES]

    sections = [
        "# kernel_dominance",
        "Batched dominance kernel vs. the scalar per-pair dominates() loop "
        "(the pre-refactor hot path), at Figure-3/4 block sizes, "
        f"{DIMS} metrics, best of {REPEATS} runs.",
        f"numpy available: {HAVE_NUMPY}",
        f"cpu_count: {os.cpu_count()}",
        "",
        format_table(
            "raw block filter (CostMatrix.dominated_slots) and cover pass "
            f"(kernel.ops.covered_positions, {INCUMBENTS} incumbents)",
            block_rows,
        ),
        "",
        format_table("pareto frontier sweep (CostMatrix.pareto_mask)", pareto_rows),
        "",
        format_table("index retrieval (PlanIndex.retrieve_ids)", index_rows),
    ]
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text("\n".join(sections) + "\n")
    print("\n".join(sections))
    print(f"[kernel_dominance] rows written to {RESULTS_PATH}")

    largest = block_rows[-1]
    if HAVE_NUMPY:
        # The auto-selected backend must clear the 3x acceptance bar on the
        # largest Figure-3/4-sized block.
        assert largest["numpy_speedup"] >= 3.0, largest
    # The pure-Python batch loop must never be slower than the scalar loop.
    assert largest["python_speedup"] >= 1.0, largest
