"""Unit tests for :mod:`repro.workloads.tpch`."""

import pytest

from repro.catalog.cardinality import CardinalityEstimator
from repro.workloads.tpch import (
    TPCH_TABLE_ROWS,
    tpch_blocks_by_table_count,
    tpch_queries,
    tpch_schema,
    tpch_statistics,
)


class TestSchema:
    def test_all_tables_present(self):
        schema = tpch_schema()
        for table in ("region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"):
            assert schema.has_table(table)

    def test_scale_factor_one_cardinalities(self):
        schema = tpch_schema()
        assert schema.table("lineitem").row_count == TPCH_TABLE_ROWS["lineitem"]
        assert schema.table("region").row_count == 5

    def test_scale_factor_scales_big_tables_only(self):
        schema = tpch_schema(scale_factor=0.1)
        assert schema.table("lineitem").row_count == 600_000
        assert schema.table("nation").row_count == 25

    def test_invalid_scale_factor(self):
        with pytest.raises(ValueError):
            tpch_schema(scale_factor=0)

    def test_alias_table_nation2_mirrors_nation(self):
        schema = tpch_schema()
        assert schema.table("nation2").row_count == schema.table("nation").row_count

    def test_statistics_catalog_builds(self):
        assert tpch_statistics().row_count("orders") == 1_500_000


class TestQueryBlocks:
    def test_every_block_has_at_least_one_join(self):
        for query in tpch_queries():
            assert len(query.join_graph.predicates) >= 1
            assert query.table_count >= 2

    def test_all_blocks_reference_known_tables(self):
        schema = tpch_schema()
        for query in tpch_queries():
            for table in query.tables:
                assert schema.has_table(table)

    def test_block_join_graphs_are_connected(self):
        for query in tpch_queries():
            assert query.is_connected(query.tables), query.name

    def test_table_count_groups_match_paper(self):
        # Figures 3-5 group by 2, 3, 4, 5, 6 and 8 tables; no 7-table block.
        groups = tpch_blocks_by_table_count()
        assert set(groups) == {2, 3, 4, 5, 6, 8}

    def test_only_q08_has_eight_tables(self):
        groups = tpch_blocks_by_table_count()
        assert [q.name for q in groups[8]] == ["tpch_q08"]

    def test_filtering_by_table_count(self):
        assert all(q.table_count <= 4 for q in tpch_queries(max_tables=4))
        assert all(q.table_count >= 3 for q in tpch_queries(min_tables=3))

    def test_query_names_are_unique(self):
        names = [q.name for q in tpch_queries()]
        assert len(names) == len(set(names))

    def test_cardinalities_computable_for_every_block(self):
        statistics = tpch_statistics()
        for query in tpch_queries():
            estimator = CardinalityEstimator(statistics, query.join_graph)
            cardinality = estimator.cardinality(query.tables)
            assert cardinality >= 1.0

    def test_q8_touches_many_small_tables(self):
        statistics = tpch_statistics()
        q08 = [q for q in tpch_queries() if q.name == "tpch_q08"][0]
        small = [t for t in q08.tables if statistics.row_count(t) <= 20_000]
        # nation, nation2, region and supplier are small: fewer sampling
        # strategies get considered for them (paper, footnote 4).
        assert len(small) >= 4
