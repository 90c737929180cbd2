"""Unit tests for the unified workload-spec resolver (:mod:`repro.workloads.spec`)."""

from __future__ import annotations

import pytest

from repro.workloads.spec import (
    FAMILY_HELP,
    canonical_spec_id,
    parse_generated_spec,
    parse_template_spec,
    resolve_workload,
)
from repro.workloads.templates import instantiate_template
from repro.workloads.tpch import TPCH_SQL


# ----------------------------------------------------------------------
# Family parsing
# ----------------------------------------------------------------------
class TestGeneratedSpecs:
    def test_round_trip(self):
        assert parse_generated_spec("gen:star:6:42") == ("star", 6, 42)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("gen:star:6", "malformed"),
            ("gen:pentagram:6:42", "unknown topology"),
            ("gen:star:six:42", "must be integers"),
            ("gen:star:0:42", "at least 1"),
        ],
    )
    def test_malformed_specs(self, spec, message):
        with pytest.raises(ValueError, match=message):
            parse_generated_spec(spec)

    def test_resolves_to_a_workload(self):
        resolved = resolve_workload("gen:chain:3:7")
        assert resolved.query.table_count == 3


class TestTemplateSpecs:
    def test_round_trip(self):
        assert parse_template_spec("template:ss_item_date:7") == ("ss_item_date", 7)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("template:ss_item_date", "malformed"),
            ("template:no_such_template:7", "unknown template"),
            ("template:ss_item_date:seven", "must be an integer"),
        ],
    )
    def test_malformed_specs(self, spec, message):
        with pytest.raises(ValueError, match=message):
            parse_template_spec(spec)

    def test_resolves_to_the_instantiated_workload(self):
        resolved = resolve_workload("template:ss_item_date:7")
        assert resolved.query.name == "template_ss_item_date"
        assert resolved.query.table_count == 3


class TestSqlSpecs:
    def test_inline_select_against_tpch(self):
        resolved = resolve_workload(
            "sql:select * from lineitem, orders "
            "where lineitem.l_orderkey = orders.o_orderkey"
        )
        assert resolved.query.name.startswith("sql_")
        assert set(resolved.query.tables) == {"lineitem", "orders"}

    def test_inline_select_falls_back_to_the_template_schema(self):
        resolved = resolve_workload(
            "sql:select * from store_sales, item "
            "where store_sales.ss_item_sk = item.i_item_sk"
        )
        assert resolved.statistics.row_count("store_sales") == 2_880_404

    def test_shipped_tpch_text_by_name(self):
        resolved = resolve_workload("sql:tpch/q03")
        assert resolved.query.name == "tpch_q03"

    def test_sql_file(self, tmp_path):
        path = tmp_path / "query.sql"
        path.write_text(
            "select * from lineitem, orders "
            "where lineitem.l_orderkey = orders.o_orderkey"
        )
        resolved = resolve_workload(f"sql:{path}")
        assert set(resolved.query.tables) == {"lineitem", "orders"}

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("sql:", "empty sql spec"),
            ("sql:tpch/q99", "no shipped SQL"),
            ("sql:/nowhere/missing.sql", "does not exist"),
            ("sql:drop table lineitem", "malformed sql spec"),
            ("sql:select * from klingon_fleet", "neither the TPC-H schema"),
        ],
    )
    def test_malformed_specs(self, spec, message):
        with pytest.raises(ValueError, match=message):
            resolve_workload(spec)


class TestTpchSpecs:
    @pytest.mark.parametrize(
        "spelling",
        (
            "q03",
            "tpch_q03",
            "tpch:q03",
            "tpch:tpch_q03",
            "sql:tpch/q03",
            "sql:tpch/tpch_q03",
        ),
    )
    def test_all_spellings_resolve_to_the_same_block(self, spelling):
        assert resolve_workload(spelling).query.name == "tpch_q03"

    def test_sql_tpch_spec_resolves_to_the_same_block(self):
        block = resolve_workload("tpch:q03")
        text = resolve_workload("sql:tpch/q03")
        assert text.query.name == block.query.name
        assert text.query.join_graph.tables == block.query.join_graph.tables
        assert text.query.join_graph.predicates == block.query.join_graph.predicates
        for table in block.query.join_graph.tables:
            assert text.query.join_graph.base_selectivity(table) == (
                block.query.join_graph.base_selectivity(table)
            )


class TestUnknownSpecs:
    @pytest.mark.parametrize("spec", ("q99", "bogus", "redshift:q1", "sqlite"))
    def test_one_consistent_error_naming_the_families(self, spec):
        with pytest.raises(ValueError, match="unknown query") as excinfo:
            resolve_workload(spec)
        assert FAMILY_HELP in str(excinfo.value)

    def test_error_lists_every_tpch_block(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_workload("q99")
        known = ", ".join(f"tpch_{name}" for name in TPCH_SQL)
        assert str(excinfo.value).endswith(f"known TPC-H blocks: {known}")


# ----------------------------------------------------------------------
# Cache identity
# ----------------------------------------------------------------------
def _identity(spec, config=None):
    resolved = resolve_workload(spec, config)
    return canonical_spec_id(spec, resolved.query, resolved.statistics, 1.0)


class TestCanonicalSpecId:
    def test_tpch_spellings_share_one_identity(self):
        identities = {
            _identity(spelling) for spelling in ("q03", "tpch_q03", "tpch:q03")
        }
        assert identities == {"tpch:tpch_q03:1.0"}

    def test_generated_specs_key_on_the_fingerprint(self):
        assert _identity("gen:star:4:1") == _identity("gen:star:4:1")
        assert _identity("gen:star:4:1") != _identity("gen:star:4:2")
        assert _identity("gen:star:4:1").startswith("gen:")

    def test_template_identity_is_spelling_independent(self):
        # The same template seed spelled as template: and as inline sql: of the
        # instantiated text would differ only in the query *name*; the
        # template: family itself is stable and seed-sensitive.
        assert _identity("template:ss_item_date:7") == (
            _identity("template:ss_item_date:7")
        )
        assert _identity("template:ss_item_date:7") != (
            _identity("template:ss_item_date:8")
        )
        assert _identity("template:ss_item_date:7").startswith("sql:")

    def test_sql_and_tpch_flavors_of_a_block_differ_only_by_family(self):
        # sql: specs key on the fingerprint, tpch: specs on the block name;
        # both are stable, spelling-independent within their family.
        assert _identity("sql:tpch/q03") == _identity("sql:tpch/q03")
        assert _identity("sql:tpch/q03").startswith("sql:")

    def test_instantiated_template_text_is_deterministic(self):
        assert instantiate_template("ss_item_date", 7) == (
            instantiate_template("ss_item_date", 7)
        )
