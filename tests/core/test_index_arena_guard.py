"""Regression tests: PlanIndex must not confuse ids from different arenas.

Plan ids are dense *per arena*, so an id from a foreign arena can equal an id
that is registered in an index.  The index adopts the arena of its first
registered block and must refuse ids of any other arena, and a rejected block
must leave the index unchanged.
"""

import pytest

from repro.core.index import PlanIndex
from repro.costs.vector import CostVector
from repro.plans.arena import PlanArena
from repro.plans.operators import ScanOperator


def make_plan(arena, cost=(1.0, 1.0)):
    return arena.plan(
        arena.allocate_scan("t", ScanOperator("seq_scan"), CostVector(cost))
    )


class TestForeignArenaHandles:
    def setup_method(self):
        self.arena_a = PlanArena(2)
        self.arena_b = PlanArena(2)
        self.plan_a = make_plan(self.arena_a)
        self.plan_b = make_plan(self.arena_b)  # same plan_id, different arena
        assert self.plan_a.plan_id == self.plan_b.plan_id
        self.index = PlanIndex()
        self.index.insert_id(self.plan_a.plan_id, 0, self.arena_a)

    def test_insert_rejects_foreign_handle(self):
        with pytest.raises(ValueError, match="different arenas"):
            self.index.insert_id(self.plan_b.plan_id, 0, self.arena_b)

    def test_insert_ids_rejects_foreign_arena(self):
        with pytest.raises(ValueError, match="different arenas"):
            self.index.insert_ids([self.plan_b.plan_id], 0, self.arena_b)
        assert len(self.index) == 1

    def test_insert_ids_rejects_registered_id(self):
        fresh = make_plan(self.arena_a, cost=(2.0, 2.0))
        with pytest.raises(ValueError, match="already registered"):
            self.index.insert_ids([fresh.plan_id, self.plan_a.plan_id], 1, self.arena_a)
        # The block is checked before anything is registered.
        assert not self.index.contains_id(fresh.plan_id)
        assert self.index.resolution_of_id(self.plan_a.plan_id) == 0

    def test_insert_ids_rejects_an_id_twice_in_one_block(self):
        fresh = make_plan(self.arena_a, cost=(2.0, 2.0))
        with pytest.raises(ValueError, match="already registered"):
            self.index.insert_ids([fresh.plan_id, fresh.plan_id], 0, self.arena_a)
        assert not self.index.contains_id(fresh.plan_id)
