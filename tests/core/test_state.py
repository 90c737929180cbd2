"""Unit tests for :mod:`repro.core.state`."""

import pytest

from repro.core.state import OptimizerCounters, OptimizerState
from repro.plans.arena import PlanArena

from tests.conftest import insert_plan, scan_plan


@pytest.fixture
def scan():
    """Scan handles in an arena of the test's own."""
    arena = PlanArena(3)
    return lambda table: scan_plan(arena, [1.0, 1.0, 0.0], table=table)


class TestOptimizerState:
    def test_result_and_candidate_sets_are_separate(self, chain_query, scan):
        state = OptimizerState(chain_query)
        result = state.result_set({"orders"})
        candidate = state.candidate_set({"orders"})
        assert result is not candidate
        insert_plan(result, scan("orders"), 0)
        assert len(candidate) == 0

    def test_sets_are_created_lazily_and_cached(self, chain_query):
        state = OptimizerState(chain_query)
        assert state.result_set({"orders"}) is state.result_set({"orders"})

    def test_unknown_table_set_rejected(self, chain_query):
        state = OptimizerState(chain_query)
        with pytest.raises(ValueError):
            state.result_set({"not_in_query"})
        with pytest.raises(ValueError):
            state.candidate_set(set())

    def test_totals(self, chain_query, scan):
        state = OptimizerState(chain_query)
        insert_plan(state.result_set({"orders"}), scan("orders"), 0)
        insert_plan(state.result_set({"items"}), scan("items"), 0)
        insert_plan(state.candidate_set({"orders"}), scan("orders"), 1)
        assert state.total_result_plans() == 2
        assert state.total_candidate_plans() == 1
        assert state.total_stored_plans() == 3

    def test_populated_sets(self, chain_query, scan):
        state = OptimizerState(chain_query)
        state.result_set({"orders"})  # created but empty
        insert_plan(state.result_set({"items"}), scan("items"), 0)
        populated = state.populated_result_sets()
        assert list(populated) == [frozenset({"items"})]

    def test_final_result_set_uses_all_query_tables(self, chain_query):
        state = OptimizerState(chain_query)
        assert state.final_result_set() is state.result_set(chain_query.tables)

    def test_seeded_flag_defaults_false(self, chain_query):
        assert not OptimizerState(chain_query).seeded


class TestOptimizerCounters:
    def test_prune_calls_sum(self):
        counters = OptimizerCounters(
            plans_inserted=2, plans_deferred=3, plans_out_of_bounds=1, plans_discarded=4
        )
        assert counters.prune_calls == 10

    def test_plans_generated_sum(self):
        counters = OptimizerCounters(scan_plans_generated=5, join_plans_generated=7)
        assert counters.plans_generated == 12
