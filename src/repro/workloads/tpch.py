"""TPC-H schema, statistics and query join blocks.

The TPC-H benchmark schema (scale factor 1) is modelled with its published
table cardinalities and the foreign keys along which its queries join.  Every
TPC-H query that contains at least one join is represented as one or more
*join blocks* -- the select-project-join sub-queries that a Selinger-style
optimizer (such as Postgres, Section 4.3 / 6.1) optimizes independently after
decomposing nested queries.

Each block is defined once, as the SQL text it summarizes (:data:`TPCH_SQL`):
the FROM clause lists the block's tables in the canonical enumeration order,
the WHERE clause spells out the standard TPC-H join conditions plus the
query's filter predicates, and a ``/*+ sel(...) */`` hint pins each filtered
table's selectivity to an exact literal (rounded estimates of the block's
WHERE clauses against the TPC-H specification defaults).  The SQL frontend
(:mod:`repro.workloads.sql`) parses a text into the block's join graph;
``tests/workloads/test_sql_tpch_differential.py`` pins every parsed block to
a frozen fixture.

Queries Q7 and Q8 join the ``nation`` table twice (customer nation and
supplier nation); because the optimizer identifies tables by name, the schema
includes ``nation2``, an alias clone of ``nation`` with identical statistics,
and the SQL spells the second reference ``nation AS nation2``.

The resulting blocks join 2, 3, 4, 5, 6 or 8 tables -- there is no 7-table
block, which is why the paper's figures have no bar at 7 tables, and the only
8-table block comes from Q8, which "refers to many small tables for which less
sampling strategies are considered" (footnote 4).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.catalog.schema import Column, ForeignKey, Schema, Table
from repro.catalog.statistics import StatisticsCatalog
from repro.plans.query import Query
from repro.workloads.generator import GeneratedQuery
from repro.workloads.sql import sql_workload

#: TPC-H table cardinalities at scale factor 1.
TPCH_TABLE_ROWS: Dict[str, int] = {
    "region": 5,
    "nation": 25,
    "nation2": 25,
    "supplier": 10_000,
    "customer": 150_000,
    "part": 200_000,
    "partsupp": 800_000,
    "orders": 1_500_000,
    "lineitem": 6_000_000,
}


def tpch_schema(scale_factor: float = 1.0) -> Schema:
    """Build the TPC-H schema scaled by ``scale_factor``.

    Only the columns participating in joins (keys) are modelled; distinct
    value counts of key columns equal the referenced table's cardinality.
    """
    if scale_factor <= 0:
        raise ValueError("scale_factor must be positive")

    def rows(table: str) -> int:
        base = TPCH_TABLE_ROWS[table]
        if table in ("region", "nation", "nation2"):
            return base  # fixed-size tables do not scale
        return max(1, int(base * scale_factor))

    def key(name: str, distinct: int) -> Column:
        return Column(name, "int", distinct_values=max(1, distinct))

    tables = [
        Table(
            "region",
            [key("r_regionkey", 5)],
            row_count=rows("region"),
        ),
        Table(
            "nation",
            [key("n_nationkey", 25), key("n_regionkey", 5)],
            row_count=rows("nation"),
        ),
        Table(
            "nation2",
            [key("n_nationkey", 25), key("n_regionkey", 5)],
            row_count=rows("nation2"),
        ),
        Table(
            "supplier",
            [key("s_suppkey", rows("supplier")), key("s_nationkey", 25)],
            row_count=rows("supplier"),
        ),
        Table(
            "customer",
            [key("c_custkey", rows("customer")), key("c_nationkey", 25)],
            row_count=rows("customer"),
        ),
        Table(
            "part",
            [key("p_partkey", rows("part"))],
            row_count=rows("part"),
        ),
        Table(
            "partsupp",
            [
                key("ps_partkey", rows("part")),
                key("ps_suppkey", rows("supplier")),
            ],
            row_count=rows("partsupp"),
        ),
        Table(
            "orders",
            [
                key("o_orderkey", rows("orders")),
                key("o_custkey", rows("customer")),
            ],
            row_count=rows("orders"),
        ),
        Table(
            "lineitem",
            [
                key("l_orderkey", rows("orders")),
                key("l_partkey", rows("part")),
                key("l_suppkey", rows("supplier")),
            ],
            row_count=rows("lineitem"),
        ),
    ]
    foreign_keys = [
        ForeignKey("nation", "n_regionkey", "region", "r_regionkey"),
        ForeignKey("nation2", "n_regionkey", "region", "r_regionkey"),
        ForeignKey("supplier", "s_nationkey", "nation", "n_nationkey"),
        ForeignKey("customer", "c_nationkey", "nation", "n_nationkey"),
        ForeignKey("partsupp", "ps_partkey", "part", "p_partkey"),
        ForeignKey("partsupp", "ps_suppkey", "supplier", "s_suppkey"),
        ForeignKey("orders", "o_custkey", "customer", "c_custkey"),
        ForeignKey("lineitem", "l_orderkey", "orders", "o_orderkey"),
        ForeignKey("lineitem", "l_partkey", "part", "p_partkey"),
        ForeignKey("lineitem", "l_suppkey", "supplier", "s_suppkey"),
    ]
    return Schema("tpch", tables, foreign_keys)


def tpch_statistics(scale_factor: float = 1.0) -> StatisticsCatalog:
    """Statistics catalog over the TPC-H schema."""
    return StatisticsCatalog(tpch_schema(scale_factor))


#: Block name -> SQL text.  The literals are real SQL, not format strings.
TPCH_SQL: Dict[str, str] = {
    # Q2: main block (5 tables) and correlated min-cost subquery (4 tables).
    "q02_main": """\
/*+ sel(part 0.004) sel(region 0.2) */
select supplier.s_acctbal, supplier.s_name, nation.n_name, part.p_partkey
from part, supplier, partsupp, nation, region
where partsupp.ps_partkey = part.p_partkey
  and partsupp.ps_suppkey = supplier.s_suppkey
  and supplier.s_nationkey = nation.n_nationkey
  and nation.n_regionkey = region.r_regionkey
  and part.p_size = 15 and part.p_type like '%BRASS'
  and region.r_name = 'EUROPE'
""",
    "q02_sub": """\
/*+ sel(region 0.2) */
select min(partsupp.ps_supplycost)
from partsupp, supplier, nation, region
where partsupp.ps_suppkey = supplier.s_suppkey
  and supplier.s_nationkey = nation.n_nationkey
  and nation.n_regionkey = region.r_regionkey
  and region.r_name = 'EUROPE'
""",
    # Q3: shipping priority.
    "q03": """\
/*+ sel(customer 0.2) sel(orders 0.48) sel(lineitem 0.54) */
select lineitem.l_orderkey, orders.o_orderdate, orders.o_shippriority
from customer, orders, lineitem
where orders.o_custkey = customer.c_custkey
  and lineitem.l_orderkey = orders.o_orderkey
  and customer.c_mktsegment = 'BUILDING'
  and orders.o_orderdate < '1995-03-15'
  and lineitem.l_shipdate > '1995-03-15'
""",
    # Q4: order priority checking (semi-join block).
    "q04": """\
/*+ sel(orders 0.038) sel(lineitem 0.63) */
select orders.o_orderpriority, count(*)
from orders, lineitem
where lineitem.l_orderkey = orders.o_orderkey
  and orders.o_orderdate >= '1993-07-01' and orders.o_orderdate < '1993-10-01'
  and lineitem.l_commitdate < '1993-10-01'
""",
    # Q5: local supplier volume.
    "q05": """\
/*+ sel(orders 0.15) sel(region 0.2) */
select nation.n_name, sum(lineitem.l_extendedprice)
from customer, orders, lineitem, supplier, nation, region
where orders.o_custkey = customer.c_custkey
  and lineitem.l_orderkey = orders.o_orderkey
  and lineitem.l_suppkey = supplier.s_suppkey
  and supplier.s_nationkey = nation.n_nationkey
  and customer.c_nationkey = nation.n_nationkey
  and nation.n_regionkey = region.r_regionkey
  and orders.o_orderdate >= '1994-01-01' and orders.o_orderdate < '1995-01-01'
  and region.r_name = 'ASIA'
""",
    # Q7: volume shipping (two nation aliases).
    "q07": """\
/*+ sel(lineitem 0.3) sel(nation 0.04) sel(nation2 0.04) */
select nation.n_name, nation2.n_name, sum(lineitem.l_extendedprice)
from supplier, lineitem, orders, customer, nation, nation as nation2
where lineitem.l_suppkey = supplier.s_suppkey
  and lineitem.l_orderkey = orders.o_orderkey
  and orders.o_custkey = customer.c_custkey
  and supplier.s_nationkey = nation.n_nationkey
  and customer.c_nationkey = nation2.n_nationkey
  and lineitem.l_shipdate between '1995-01-01' and '1996-12-31'
  and nation.n_name = 'FRANCE'
  and nation2.n_name = 'GERMANY'
""",
    # Q8: national market share (8 tables; the largest block in the workload).
    "q08": """\
/*+ sel(part 0.007) sel(orders 0.3) sel(region 0.2) */
select orders.o_orderdate, sum(lineitem.l_extendedprice)
from part, supplier, lineitem, orders, customer, nation, nation as nation2, region
where lineitem.l_partkey = part.p_partkey
  and lineitem.l_suppkey = supplier.s_suppkey
  and lineitem.l_orderkey = orders.o_orderkey
  and orders.o_custkey = customer.c_custkey
  and customer.c_nationkey = nation.n_nationkey
  and nation.n_regionkey = region.r_regionkey
  and supplier.s_nationkey = nation2.n_nationkey
  and part.p_type = 'ECONOMY ANODIZED STEEL'
  and orders.o_orderdate between '1995-01-01' and '1996-12-31'
  and region.r_name = 'AMERICA'
""",
    # Q9: product type profit measure.
    "q09": """\
/*+ sel(part 0.05) */
select nation.n_name, sum(lineitem.l_extendedprice)
from part, supplier, lineitem, partsupp, orders, nation
where lineitem.l_partkey = part.p_partkey
  and lineitem.l_suppkey = supplier.s_suppkey
  and lineitem.l_partkey = partsupp.ps_partkey
  and lineitem.l_orderkey = orders.o_orderkey
  and supplier.s_nationkey = nation.n_nationkey
  and part.p_name like '%green%'
""",
    # Q10: returned item reporting.
    "q10": """\
/*+ sel(orders 0.03) sel(lineitem 0.25) */
select customer.c_custkey, customer.c_name, sum(lineitem.l_extendedprice)
from customer, orders, lineitem, nation
where orders.o_custkey = customer.c_custkey
  and lineitem.l_orderkey = orders.o_orderkey
  and customer.c_nationkey = nation.n_nationkey
  and orders.o_orderdate >= '1993-10-01' and orders.o_orderdate < '1994-01-01'
  and lineitem.l_returnflag = 'R'
""",
    # Q11: important stock identification (main and HAVING subquery blocks).
    "q11_main": """\
/*+ sel(nation 0.04) */
select partsupp.ps_partkey, sum(partsupp.ps_supplycost)
from partsupp, supplier, nation
where partsupp.ps_suppkey = supplier.s_suppkey
  and supplier.s_nationkey = nation.n_nationkey
  and nation.n_name = 'GERMANY'
""",
    "q11_sub": """\
/*+ sel(nation 0.04) */
select sum(partsupp.ps_supplycost)
from partsupp, supplier, nation
where partsupp.ps_suppkey = supplier.s_suppkey
  and supplier.s_nationkey = nation.n_nationkey
  and nation.n_name = 'GERMANY'
""",
    # Q12: shipping modes and order priority.
    "q12": """\
/*+ sel(lineitem 0.005) */
select lineitem.l_shipmode, count(*)
from orders, lineitem
where lineitem.l_orderkey = orders.o_orderkey
  and lineitem.l_shipmode in ('MAIL', 'SHIP') and lineitem.l_receiptdate >= '1994-01-01'
""",
    # Q13: customer distribution (outer join block).
    "q13": """\
/*+ sel(orders 0.98) */
select customer.c_custkey, count(orders.o_orderkey)
from customer, orders
where orders.o_custkey = customer.c_custkey
  and orders.o_comment not like '%special%requests%'
""",
    # Q14: promotion effect.
    "q14": """\
/*+ sel(lineitem 0.013) */
select sum(lineitem.l_extendedprice)
from lineitem, part
where lineitem.l_partkey = part.p_partkey
  and lineitem.l_shipdate >= '1995-09-01' and lineitem.l_shipdate < '1995-10-01'
""",
    # Q15: top supplier (revenue view collapses to lineitem).
    "q15": """\
/*+ sel(lineitem 0.04) */
select supplier.s_suppkey, sum(lineitem.l_extendedprice)
from supplier, lineitem
where lineitem.l_suppkey = supplier.s_suppkey
  and lineitem.l_shipdate >= '1996-01-01' and lineitem.l_shipdate < '1996-04-01'
""",
    # Q16: parts/supplier relationship.
    "q16": """\
/*+ sel(part 0.11) */
select part.p_brand, part.p_type, part.p_size, count(*)
from partsupp, part
where partsupp.ps_partkey = part.p_partkey
  and part.p_brand <> 'Brand#45' and part.p_size in (49, 14, 23, 45, 19, 3, 36, 9)
""",
    # Q17: small-quantity-order revenue.
    "q17": """\
/*+ sel(part 0.001) */
select sum(lineitem.l_extendedprice)
from lineitem, part
where lineitem.l_partkey = part.p_partkey
  and part.p_brand = 'Brand#23' and part.p_container = 'MED BOX'
""",
    # Q18: large volume customer.
    "q18": """\
select customer.c_name, orders.o_orderkey, sum(lineitem.l_quantity)
from customer, orders, lineitem
where orders.o_custkey = customer.c_custkey
  and lineitem.l_orderkey = orders.o_orderkey
""",
    # Q19: discounted revenue.
    "q19": """\
/*+ sel(lineitem 0.02) sel(part 0.002) */
select sum(lineitem.l_extendedprice)
from lineitem, part
where lineitem.l_partkey = part.p_partkey
  and lineitem.l_quantity between 1 and 11
  and part.p_brand = 'Brand#12' and part.p_size between 1 and 5
""",
    # Q20: potential part promotion (outer block).
    "q20": """\
/*+ sel(nation 0.04) */
select supplier.s_name, supplier.s_address
from supplier, nation
where supplier.s_nationkey = nation.n_nationkey
  and nation.n_name = 'CANADA'
""",
    # Q21: suppliers who kept orders waiting.
    "q21": """\
/*+ sel(orders 0.49) sel(nation 0.04) */
select supplier.s_name, count(*)
from supplier, lineitem, orders, nation
where lineitem.l_suppkey = supplier.s_suppkey
  and lineitem.l_orderkey = orders.o_orderkey
  and supplier.s_nationkey = nation.n_nationkey
  and orders.o_orderstatus = 'F'
  and nation.n_name = 'SAUDI ARABIA'
""",
    # Q22: global sales opportunity (anti-join block).
    "q22": """\
/*+ sel(customer 0.32) */
select customer.c_custkey, customer.c_acctbal
from customer, orders
where orders.o_custkey = customer.c_custkey
  and customer.c_acctbal > 0.00
""",
}


def tpch_block(block: str, scale_factor: float = 1.0) -> GeneratedQuery:
    """Parse one block (``q03`` or ``tpch_q03``) from its SQL text.

    The query is named ``tpch_<block>`` and comes with the scaled TPC-H
    statistics catalog.
    """
    name = block[len("tpch_"):] if block.startswith("tpch_") else block
    if name not in TPCH_SQL:
        raise KeyError(
            f"no shipped SQL for TPC-H block {block!r}; available: "
            f"{', '.join(TPCH_SQL)}"
        )
    return sql_workload(
        TPCH_SQL[name],
        tpch_schema(scale_factor),
        name=f"tpch_{name}",
        statistics=tpch_statistics(scale_factor),
    )


def tpch_queries(
    min_tables: int = 2, max_tables: Optional[int] = None
) -> List[Query]:
    """All TPC-H join blocks as :class:`~repro.plans.query.Query` objects.

    ``min_tables`` / ``max_tables`` filter by block size; the defaults return
    every block with at least one join, the paper's evaluation workload.
    """
    queries = []
    for name in TPCH_SQL:
        query = tpch_block(name).query
        count = query.table_count
        if count < min_tables:
            continue
        if max_tables is not None and count > max_tables:
            continue
        queries.append(query)
    return queries


def tpch_blocks_by_table_count(
    min_tables: int = 2, max_tables: Optional[int] = None
) -> Dict[int, List[Query]]:
    """TPC-H join blocks grouped by the number of joined tables.

    The experiment harness reports averages per group, reproducing the x-axis
    of Figures 3-5 (2, 3, 4, 5, 6 and 8 tables; no block joins 7 tables).
    """
    grouped: Dict[int, List[Query]] = {}
    for query in tpch_queries(min_tables=min_tables, max_tables=max_tables):
        grouped.setdefault(query.table_count, []).append(query)
    return dict(sorted(grouped.items()))
