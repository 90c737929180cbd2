"""Unit tests for :mod:`repro.core.fresh`."""

from repro.core.fresh import FreshnessRegistry, fresh_id_pairs
from repro.plans.operators import JoinOperator

HASH_JOIN = JoinOperator("hash_join")


def register(registry, left_id, right_id, operator=HASH_JOIN):
    return registry.register_ids(left_id, right_id, registry.operator_key(operator))


class TestFreshnessRegistry:
    def test_first_registration_is_fresh(self):
        assert register(FreshnessRegistry(), 1, 2)

    def test_second_registration_is_stale(self):
        registry = FreshnessRegistry()
        assert register(registry, 1, 2)
        assert not register(registry, 1, 2)

    def test_registration_is_symmetric(self):
        registry = FreshnessRegistry()
        register(registry, 1, 2)
        assert not register(registry, 2, 1)

    def test_different_operator_is_fresh(self):
        registry = FreshnessRegistry()
        register(registry, 1, 2, JoinOperator("hash_join"))
        assert register(registry, 1, 2, JoinOperator("nested_loop_join"))

    def test_operator_keys_are_interned_per_variant(self):
        registry = FreshnessRegistry()
        first = registry.operator_key(JoinOperator("hash_join"))
        assert registry.operator_key(JoinOperator("hash_join")) == first
        other = registry.operator_key(JoinOperator("hash_join", parallelism=2))
        assert other != first
        assert len(registry) == 0  # interning registers no combination

    def test_counters(self):
        registry = FreshnessRegistry()
        register(registry, 1, 2)
        register(registry, 1, 2)
        assert registry.counters.fresh_combinations == 1
        assert registry.counters.repeated_combinations == 1
        assert registry.counters.total_checks == 2

    def test_clear(self):
        registry = FreshnessRegistry()
        register(registry, 1, 2)
        registry.clear()
        assert len(registry) == 0
        assert register(registry, 1, 2)


class TestFreshPairs:
    def test_empty_operands_yield_nothing(self):
        assert list(fresh_id_pairs([], [2])) == []
        assert list(fresh_id_pairs([1], [])) == []

    def test_unknown_delta_enumerates_all_pairs(self):
        pairs = list(fresh_id_pairs([1, 2], [3, 4, 5]))
        assert pairs == [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]

    def test_delta_sets_skip_old_old_pairs(self):
        old_left, new_left, old_right, new_right = 1, 2, 3, 4
        pairs = list(
            fresh_id_pairs(
                [old_left, new_left],
                [old_right, new_right],
                left_delta=[new_left],
                right_delta=[new_right],
            )
        )
        # Δ-new × old, old × Δ-new, Δ-new × Δ-new; never old × old.
        assert pairs == [
            (new_left, old_right),
            (old_left, new_right),
            (new_left, new_right),
        ]

    def test_empty_deltas_yield_nothing(self):
        assert list(fresh_id_pairs([1], [2], left_delta=[], right_delta=[])) == []

    def test_full_delta_enumerates_everything(self):
        left, right = [1, 2], [3]
        pairs = list(fresh_id_pairs(left, right, left_delta=left, right_delta=right))
        assert pairs == [(1, 3), (2, 3)]

    def test_pairs_are_unique(self):
        left, right = [1, 2, 3], [4, 5]
        pairs = list(
            fresh_id_pairs(left, right, left_delta=left[:1], right_delta=right[:1])
        )
        assert len(pairs) == len(set(pairs))
