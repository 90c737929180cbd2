"""Unit tests for :mod:`repro.plans.query`."""

import math

import pytest

from repro.catalog.cardinality import JoinGraph, JoinPredicate
from repro.plans.query import Query, plan_order, proper_splits, table_subsets


class TestQuery:
    def test_tables_and_count(self, chain_query):
        assert chain_query.tables == frozenset({"customers", "orders", "items"})
        assert chain_query.table_count == 3
        assert len(chain_query) == 3

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Query("", JoinGraph(tables=["a"]))

    def test_subsets_of_size(self, chain_query):
        pairs = list(chain_query.subsets_of_size(2))
        assert len(pairs) == 3
        assert all(len(subset) == 2 for subset in pairs)

    def test_subsets_ordered_by_cardinality(self, chain_query):
        sizes = [len(subset) for subset in chain_query.subsets()]
        assert sizes == sorted(sizes)
        assert len(sizes) == 7  # 2^3 - 1 non-empty subsets

    def test_splits_delegate(self, chain_query):
        splits = list(chain_query.splits(chain_query.tables))
        assert len(splits) == 3

    def test_connectivity_delegates_to_join_graph(self, chain_query):
        assert chain_query.is_connected({"customers", "orders"})
        assert not chain_query.is_connected({"customers", "items"})


class TestTableSubsets:
    def test_counts_match_binomials(self):
        tables = ["a", "b", "c", "d"]
        subsets = list(table_subsets(tables))
        assert len(subsets) == 2 ** 4 - 1
        assert len(list(table_subsets(tables, min_size=2))) == 2 ** 4 - 1 - 4

    def test_deduplicates_input(self):
        assert len(list(table_subsets(["a", "a", "b"]))) == 3

    def test_subsets_are_frozensets(self):
        assert all(isinstance(s, frozenset) for s in table_subsets(["a", "b"]))


class TestProperSplits:
    def test_split_count_formula(self):
        # 2^(k-1) - 1 unordered splits for a set of k tables.
        for k in range(2, 6):
            tables = frozenset(f"t{i}" for i in range(k))
            splits = list(proper_splits(tables))
            assert len(splits) == 2 ** (k - 1) - 1

    def test_splits_partition_the_set(self):
        tables = frozenset({"a", "b", "c"})
        for left, right in proper_splits(tables):
            assert left | right == tables
            assert not left & right
            assert left and right

    def test_each_unordered_split_appears_once(self):
        tables = frozenset({"a", "b", "c", "d"})
        seen = set()
        for left, right in proper_splits(tables):
            key = frozenset({left, right})
            assert key not in seen
            seen.add(key)

    def test_single_table_has_no_splits(self):
        assert list(proper_splits(frozenset({"a"}))) == []


def disconnected_query() -> Query:
    """Two components, a-b and c-d, with no predicate between them."""
    return Query(
        "two_components",
        JoinGraph(
            tables=["a", "b", "c", "d"],
            predicates=[
                JoinPredicate("a", "x", "b", "x"),
                JoinPredicate("c", "y", "d", "y"),
            ],
        ),
    )


def sets(*names):
    return frozenset(names)


class TestPlanOrder:
    def test_disconnected_graph_without_cross_products(self):
        order = plan_order(disconnected_query())
        assert order == [
            (sets("a", "b"), [(sets("a"), sets("b"))]),
            (sets("c", "d"), [(sets("c"), sets("d"))]),
        ]

    def test_disconnected_graph_with_cross_products(self):
        query = disconnected_query()
        order = plan_order(query, allow_cross_products=True)
        assert [subset for subset, _ in order] == list(
            table_subsets(query.tables, min_size=2)
        )
        for subset, splits in order:
            assert splits == list(proper_splits(subset))
        assert order[-1][0] == query.tables
        assert sum(len(splits) for _, splits in order) == 6 * 1 + 4 * 3 + 7

    def test_chain_drops_splits_with_a_disconnected_part(self, chain_query):
        order = dict(plan_order(chain_query))
        assert sets("customers", "items") not in order
        full = order[chain_query.tables]
        assert (sets("customers", "items"), sets("orders")) not in full
        assert len(full) == 2
