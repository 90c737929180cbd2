"""Differential suite: the SQL-parsed TPC-H blocks against a frozen fixture.

Each TPC-H block is defined once, by its shipped SQL text.  The texts
replaced hand-coded join-graph stubs, and ``tests/workloads/tpch_blocks.json``
holds what those stubs produced (see :mod:`tests.workloads.tpch_capture`):
per block the table order, the predicate order, ``repr`` of every base
selectivity and the workload fingerprint, and per end-to-end cell the hex
frontier rows and ``plans_generated``.  This suite asserts that the SQL path
reproduces every one of those facts, on both kernel backends.
"""

from __future__ import annotations

import json

import pytest

from repro import kernel
from repro.workloads.tpch import TPCH_SQL, tpch_block
from tests.workloads.tpch_capture import (
    CELLS,
    FIXTURE_PATH,
    block_facts,
    capture_blocks,
    capture_cell,
    cell_key,
)

try:
    import numpy  # noqa: F401

    BACKENDS = ("python", "numpy")
except ImportError:  # pragma: no cover - numpy ships in the dev env
    BACKENDS = ("python",)

FIXTURE = json.loads(FIXTURE_PATH.read_text())
FROZEN_BLOCKS = {block["name"]: block for block in FIXTURE["blocks"]}


def _parsed_facts(block):
    parsed = tpch_block(block)
    return block_facts(parsed.query, parsed.statistics)


class TestStructuralEquality:
    def test_fixture_covers_every_cell(self):
        assert set(FIXTURE["cells"]) == {cell_key(*cell) for cell in CELLS}

    def test_every_frozen_block_has_shipped_sql(self):
        assert [f"tpch_{name}" for name in TPCH_SQL] == list(FROZEN_BLOCKS)

    def test_tpch_queries_reproduce_the_frozen_blocks_in_order(self):
        # Figures 1-5 and ``repro-moqo workload`` enumerate tpch_queries().
        assert capture_blocks() == FIXTURE["blocks"]

    @pytest.mark.parametrize("block", list(TPCH_SQL))
    def test_join_graph_and_selectivities_match(self, block):
        parsed = _parsed_facts(block)
        frozen = FROZEN_BLOCKS[f"tpch_{block}"]
        assert parsed["name"] == frozen["name"]
        assert parsed["tables"] == frozen["tables"]
        assert parsed["predicates"] == frozen["predicates"]
        # repr-level equality: these floats feed the fingerprint.
        assert parsed["selectivities"] == frozen["selectivities"]

    @pytest.mark.parametrize("block", list(TPCH_SQL))
    def test_workload_fingerprints_match(self, block):
        frozen = FROZEN_BLOCKS[f"tpch_{block}"]
        assert _parsed_facts(block)["fingerprint"] == frozen["fingerprint"]

    def test_scale_factor_flows_into_the_sql_path(self):
        scaled = tpch_block("q03", scale_factor=0.1)
        assert scaled.statistics.row_count("lineitem") == 600_000

    def test_hints_in_shipped_sql_carry_the_stub_selectivities(self):
        # Spot check one block: the hint literal in the SQL text is exactly
        # the frozen estimate, not a re-derived approximation.
        text = TPCH_SQL["q03"]
        for table, value in FROZEN_BLOCKS["tpch_q03"]["selectivities"]:
            assert f"sel({table} {value})" in text


# ----------------------------------------------------------------------
# End-to-end frontiers
# ----------------------------------------------------------------------
def _frontier(block, backend, algorithm):
    with kernel.use_backend(backend):
        return capture_cell(block, algorithm)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", ("iama", "oneshot"))
@pytest.mark.parametrize("block", ("q03", "q05", "q14"))
def test_frontiers_are_bit_identical_per_algorithm(block, algorithm, backend):
    frozen = FIXTURE["cells"][cell_key(block, algorithm)]
    parsed = _frontier(block, backend, algorithm)
    assert parsed["frontier"] == frozen["frontier"], (block, algorithm, backend)
    assert parsed["plans_generated"] == frozen["plans_generated"]


@pytest.mark.skipif(len(BACKENDS) < 2, reason="numpy backend unavailable")
def test_sql_path_on_numpy_equals_stub_path_on_python():
    # The fixture was captured on the python backend.
    parsed = _frontier("q10", "numpy", "iama")
    frozen = FIXTURE["cells"][cell_key("q10", "iama")]
    assert parsed["frontier"] == frozen["frontier"]
    assert parsed["plans_generated"] == frozen["plans_generated"]
