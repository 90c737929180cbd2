"""E-arena: micro-benchmark of the arena-backed generate → cost hot path.

Compares batched block costing (``PlanFactory.combine_block``: one vectorized
kernel call per (operator, metric) for a whole block of sub-plan pairs, each
joined with every operator) against per-plan costing (``PlanFactory.join_plan``: the
pre-arena hot path — per-plan cardinality lookups, per-plan component
dictionaries, one ``CostVector`` and one plan handle per combination), at the
block sizes the optimizer's fresh-plan generation produces.

Both paths go through the same cost formulas and must produce bit-identical
cost rows (asserted per size on both kernel backends); the block path is
required to be at least 2x faster at the largest size on the numpy backend
(the acceptance bar of the arena refactor).  A small end-to-end IAMA
resolution sweep is also timed for reference.  Results are persisted to
``results/plan_arena.txt``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Tuple

from repro import kernel
from repro.api import OptimizeRequest, open_session, resolve_request
from repro.plans.arena import PlanArena

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - depends on environment
    HAVE_NUMPY = False

RESULTS_PATH = Path(__file__).resolve().parent.parent / "results" / "plan_arena.txt"

#: Combination-block sizes bracketing what fresh-plan generation feeds the
#: costing step; 4096 is the acceptance-criteria size.
SIZES = (256, 1024, 4096)
REPEATS = 5


def best_time(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _combination_fixture(size: int):
    """A factory plus a block of whole pairs that ``size`` joins fill.

    The operand blocks are scan plans of two generator tables, repeated until
    their cross product holds ``ceil(size / operators)`` pairs -- the exact
    shape of one fresh-plan generation split.  Returns the pairs as two id
    columns.
    """
    resolved = resolve_request(
        OptimizeRequest(workload="gen:chain:2:0", algorithm="iama", scale="tiny")
    )
    factory = resolved.factory
    tables = sorted(resolved.query.tables)
    left_table, right_table = tables[0], tables[1]
    operators = factory.join_operators()
    arena = factory.arena

    pairs_needed = -(-size // len(operators))
    side = max(1, int(pairs_needed ** 0.5) + 1)
    left_side: List[int] = []
    right_side: List[int] = []
    while len(left_side) < side:
        left_side.extend(factory.scan_block(left_table))
    while len(right_side) < side:
        right_side.extend(factory.scan_block(right_table))
    pairs = [
        (left_id, right_id) for left_id in left_side for right_id in right_side
    ][:pairs_needed]
    if len(pairs) < pairs_needed:
        raise AssertionError("fixture could not reach the requested block size")
    left_ids = [left_id for left_id, _ in pairs]
    right_ids = [right_id for _, right_id in pairs]
    return factory, arena, left_ids, right_ids, operators


def measure_block_costing(size: int) -> dict:
    """combine_block vs a join_plan-per-combination loop, both backends."""
    factory, arena, left_ids, right_ids, operators = _combination_fixture(size)
    left_tables = arena.tables_of(left_ids[0])
    right_tables = arena.tables_of(right_ids[0])

    def per_plan() -> List[Tuple[float, ...]]:
        return [
            tuple(
                factory.join_plan(
                    arena.plan(left_id), arena.plan(right_id), operator
                ).cost
            )
            for left_id, right_id in zip(left_ids, right_ids)
            for operator in operators
        ]

    def block() -> List[Tuple[float, ...]]:
        ids = factory.combine_block(
            left_tables, right_tables, left_ids, right_ids, operators
        )
        return [arena.cost_row(plan_id) for plan_id in ids]

    expected = per_plan()
    row = {"size": size, "scalar_seconds": best_time(per_plan)}
    for backend in ("python",) + (("numpy",) if HAVE_NUMPY else ()):
        with kernel.use_backend(backend):
            assert block() == expected, (
                f"block costing diverged from per-plan costing on {backend}"
            )
            row[f"{backend}_seconds"] = best_time(block)
            row[f"{backend}_speedup"] = (
                row["scalar_seconds"] / row[f"{backend}_seconds"]
            )
    return row


def measure_end_to_end() -> dict:
    """Per-invocation IAMA wall time on the arena path (reference numbers)."""
    request = OptimizeRequest(
        workload="gen:clique:5:7", algorithm="iama", scale="smoke", levels=4
    )
    started = time.perf_counter()
    result = open_session(request).run()
    elapsed = time.perf_counter() - started
    durations = result.durations_seconds
    return {
        "workload": request.workload,
        "invocations": len(durations),
        "plans_generated": result.plans_generated,
        "avg_invocation_seconds": sum(durations) / len(durations),
        "max_invocation_seconds": max(durations),
        "total_seconds": elapsed,
    }


def format_table(title: str, rows: list) -> str:
    keys = [k for k in rows[0] if k != "size"]
    header = f"## {title}\n" + " | ".join(["size"] + keys)
    lines = [header, " | ".join(["----"] * (len(keys) + 1))]
    for row in rows:
        cells = [str(row["size"])]
        for key in keys:
            value = row[key]
            cells.append(f"{value:.3g}" if "speedup" in key else f"{value * 1e6:.1f}us")
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def test_plan_arena_block_costing_speedup():
    rows = [measure_block_costing(size) for size in SIZES]
    end_to_end = measure_end_to_end()

    sections = [
        "# plan_arena",
        "Arena block costing (PlanFactory.combine_block: gather child cost "
        "rows + one vectorized aggregation per metric) vs per-plan costing "
        "(PlanFactory.join_plan: the pre-arena per-object hot path), at "
        f"fresh-generation block sizes, best of {REPEATS} runs.",
        "Cost rows are asserted bit-identical between both paths and both "
        "kernel backends before timing.",
        f"numpy available: {HAVE_NUMPY}",
        "",
        format_table("block costing (combine_block) vs per-plan (join_plan)", rows),
        "",
        "## end-to-end reference (arena path)",
        "\n".join(
            f"{key}: {value:.6g}" if isinstance(value, float) else f"{key}: {value}"
            for key, value in end_to_end.items()
        ),
    ]
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text("\n".join(sections) + "\n")
    print("\n".join(sections))
    print(f"[plan_arena] rows written to {RESULTS_PATH}")

    largest = rows[-1]
    if HAVE_NUMPY:
        # Acceptance criterion of the arena refactor: >= 2x at 4096-plan
        # blocks on the numpy backend.
        assert largest["numpy_speedup"] >= 2.0, largest
    # The pure-Python block path must never lose to per-plan costing.
    assert largest["python_speedup"] >= 1.0, largest
