"""Frozen facts of the TPC-H join blocks.

``capture_blocks`` lists, per block of :func:`repro.workloads.tpch.tpch_queries`
and in its order, everything downstream code can observe of a block: the
table order, the join predicates in order (with ``repr`` of any explicit
join selectivity), ``repr`` of every base selectivity (the floats feed the
workload fingerprint) and the workload fingerprint itself.
``capture_cell`` optimizes one ``tpch:`` spec end to end and returns its
frontier rows (hex-encoded floats, exact to the last bit) and its
``plans_generated``.

``tests/workloads/tpch_blocks.json`` was captured from the hand-coded
join-graph stubs that the shipped SQL texts replaced, with the stub path
forced for ``tpch:`` specs, on the python kernel backend.  It is frozen: it
pins the SQL path to what the stubs produced, so it must not be re-recorded
from the SQL path.  ``tests/workloads/test_sql_tpch_differential.py``
asserts that the SQL path reproduces it on both kernel backends.
``python -m tests.workloads.tpch_capture`` writes the file from whatever
``tpch_queries()`` and the ``tpch:`` resolver return.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

FIXTURE_PATH = Path(__file__).resolve().parent / "tpch_blocks.json"

#: (block, algorithm) cells optimized end to end.
CELLS = (
    ("q03", "iama"),
    ("q03", "oneshot"),
    ("q05", "iama"),
    ("q05", "oneshot"),
    ("q10", "iama"),
    ("q14", "iama"),
    ("q14", "oneshot"),
)
LEVELS = 2


def cell_key(block: str, algorithm: str) -> str:
    return f"{block}/{algorithm}"


def block_facts(query, statistics) -> Dict:
    """The observable definition of one block."""
    from repro.workloads.generator import GeneratedQuery, workload_fingerprint

    graph = query.join_graph
    generated = GeneratedQuery(
        query=query, schema=statistics.schema, statistics=statistics
    )
    return {
        "name": query.name,
        "tables": list(graph.tables),
        "predicates": [
            [
                p.left_table,
                p.left_column,
                p.right_table,
                p.right_column,
                repr(p.selectivity),
            ]
            for p in graph.predicates
        ],
        "selectivities": [
            [table, repr(graph.base_selectivity(table))] for table in graph.tables
        ],
        "fingerprint": workload_fingerprint(generated),
    }


def capture_blocks() -> List[Dict]:
    from repro.workloads.tpch import tpch_queries, tpch_statistics

    statistics = tpch_statistics()
    return [block_facts(query, statistics) for query in tpch_queries()]


def capture_cell(block: str, algorithm: str) -> Dict:
    """Optimize ``tpch:<block>`` and return its frontier and plan count."""
    from repro.api import OptimizeRequest, open_session

    request = OptimizeRequest(
        workload=f"tpch:{block}", algorithm=algorithm, scale="tiny", levels=LEVELS
    )
    result = open_session(request).run()
    return {
        "frontier": [
            [value.hex() for value in summary.cost] for summary in result.frontier
        ],
        "plans_generated": result.plans_generated,
    }


def main() -> None:
    from repro import kernel

    with kernel.use_backend("python"):
        fixture = {
            "blocks": capture_blocks(),
            "cells": {
                cell_key(block, algorithm): capture_cell(block, algorithm)
                for block, algorithm in CELLS
            },
        }
    FIXTURE_PATH.write_text(json.dumps(fixture, indent=1) + "\n")
    print(
        f"wrote {len(fixture['blocks'])} blocks and {len(fixture['cells'])} "
        f"cells to {FIXTURE_PATH}"
    )


if __name__ == "__main__":
    main()
