"""TPC-DS-style parameterized query templates, banded by join count.

A realistic serving workload (perfbench ``service_zipf`` sends one) needs more
than 21 fixed TPC-H blocks: it needs *families* of similar queries whose
members share a shape but differ in parameters — the redbench observation that
production traffic is template-skewed.  This package ships a compact TPC-DS-flavored
star schema (``store_sales`` fact table plus eight dimensions, published
scale-factor-1 cardinalities) and one query template per join-count band from
2 to 7 joins, mirroring how redbench bands its TPC-DS wrapper.

A template is real SQL text with ``{param}`` placeholders.  *Selectivity*
parameters are drawn log-uniformly and written into the ``/*+ sel(...) */``
hint — so re-instantiating a template genuinely changes the workload (the
base selectivities feed :func:`~repro.workloads.generator.workload_fingerprint`,
which keys both caches), while *choice* parameters only vary literal flavor.
Instantiation is seeded with ``random.Random(f"{name}:{seed}")`` — string
seeding hashes with SHA-512 internally, so the same ``(template, seed)`` pair
produces byte-identical SQL in every process regardless of
``PYTHONHASHSEED`` (the determinism suite pins this).

``template:<name>:<seed>`` workload specs resolve through
:func:`template_workload`; the instantiated SQL is parsed by the same
frontend (:mod:`repro.workloads.sql`) that handles ``sql:`` specs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.catalog.schema import Column, ForeignKey, Schema, Table
from repro.workloads.generator import GeneratedQuery
from repro.workloads.sql import sql_workload

#: Published TPC-DS scale-factor-1 cardinalities for the modelled tables.
TPCDS_TABLE_ROWS: Dict[str, int] = {
    "store_sales": 2_880_404,
    "date_dim": 73_049,
    "item": 18_000,
    "store": 12,
    "customer": 100_000,
    "customer_address": 50_000,
    "customer_demographics": 1_920_800,
    "household_demographics": 7_200,
    "promotion": 300,
}


def template_schema() -> Schema:
    """The TPC-DS-style star schema the templates are written against."""

    def key(name: str, distinct: int) -> Column:
        return Column(name, "int", distinct_values=max(1, distinct))

    rows = TPCDS_TABLE_ROWS
    tables = [
        Table(
            "store_sales",
            [
                key("ss_sold_date_sk", rows["date_dim"]),
                key("ss_item_sk", rows["item"]),
                key("ss_store_sk", rows["store"]),
                key("ss_customer_sk", rows["customer"]),
                key("ss_cdemo_sk", rows["customer_demographics"]),
                key("ss_hdemo_sk", rows["household_demographics"]),
                key("ss_promo_sk", rows["promotion"]),
            ],
            row_count=rows["store_sales"],
        ),
        Table(
            "date_dim",
            [key("d_date_sk", rows["date_dim"]), key("d_year", 100)],
            row_count=rows["date_dim"],
        ),
        Table(
            "item",
            [key("i_item_sk", rows["item"]), key("i_category", 10)],
            row_count=rows["item"],
        ),
        Table(
            "store",
            [key("s_store_sk", rows["store"]), key("s_state", 9)],
            row_count=rows["store"],
        ),
        Table(
            "customer",
            [
                key("c_customer_sk", rows["customer"]),
                key("c_current_addr_sk", rows["customer_address"]),
            ],
            row_count=rows["customer"],
        ),
        Table(
            "customer_address",
            [key("ca_address_sk", rows["customer_address"]), key("ca_state", 51)],
            row_count=rows["customer_address"],
        ),
        Table(
            "customer_demographics",
            [
                key("cd_demo_sk", rows["customer_demographics"]),
                key("cd_gender", 2),
            ],
            row_count=rows["customer_demographics"],
        ),
        Table(
            "household_demographics",
            [
                key("hd_demo_sk", rows["household_demographics"]),
                key("hd_income_band_sk", 20),
            ],
            row_count=rows["household_demographics"],
        ),
        Table(
            "promotion",
            [key("p_promo_sk", rows["promotion"]), key("p_channel_email", 2)],
            row_count=rows["promotion"],
        ),
    ]
    foreign_keys = [
        ForeignKey("store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk"),
        ForeignKey("store_sales", "ss_item_sk", "item", "i_item_sk"),
        ForeignKey("store_sales", "ss_store_sk", "store", "s_store_sk"),
        ForeignKey("store_sales", "ss_customer_sk", "customer", "c_customer_sk"),
        ForeignKey(
            "store_sales", "ss_cdemo_sk", "customer_demographics", "cd_demo_sk"
        ),
        ForeignKey(
            "store_sales", "ss_hdemo_sk", "household_demographics", "hd_demo_sk"
        ),
        ForeignKey("store_sales", "ss_promo_sk", "promotion", "p_promo_sk"),
        ForeignKey(
            "customer", "c_current_addr_sk", "customer_address", "ca_address_sk"
        ),
    ]
    return Schema("tpcds", tables, foreign_keys)


# ----------------------------------------------------------------------
# Template definitions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TemplateParam:
    """One placeholder of a template.

    ``kind="selectivity"`` draws log-uniformly from ``[low, high]`` and lands
    in the hint (it changes the workload fingerprint); ``kind="choice"``
    picks from ``options`` and only varies literal flavor.
    """

    name: str
    kind: str  # "selectivity" | "choice"
    low: float = 0.0
    high: float = 0.0
    options: Tuple[str, ...] = ()


@dataclass(frozen=True)
class QueryTemplate:
    """A parameterized query: SQL text with placeholders plus its band."""

    name: str
    joins: int
    sql: str
    params: Tuple[TemplateParam, ...]

    @property
    def tables(self) -> int:
        return self.joins + 1


def _sel(name: str, low: float, high: float) -> TemplateParam:
    return TemplateParam(name=name, kind="selectivity", low=low, high=high)


def _choice(name: str, *options: str) -> TemplateParam:
    return TemplateParam(name=name, kind="choice", options=tuple(options))


_YEARS = ("1998", "1999", "2000", "2001", "2002")
_CATEGORIES = ("Books", "Electronics", "Home", "Jewelry", "Music", "Shoes")
_STATES = ("CA", "GA", "IL", "NY", "TX", "WA")

TEMPLATES: Tuple[QueryTemplate, ...] = (
    QueryTemplate(
        name="ss_item_date",
        joins=2,
        sql="""\
/*+ sel(date_dim {d_sel}) sel(item {i_sel}) */
select item.i_category, sum(store_sales.ss_ext_sales_price)
from store_sales, date_dim, item
where store_sales.ss_sold_date_sk = date_dim.d_date_sk
  and store_sales.ss_item_sk = item.i_item_sk
  and date_dim.d_year = {year}
  and item.i_category = '{category}'
""",
        params=(
            _sel("d_sel", 0.002, 0.2),
            _sel("i_sel", 0.01, 0.3),
            _choice("year", *_YEARS),
            _choice("category", *_CATEGORIES),
        ),
    ),
    QueryTemplate(
        name="ss_store_monthly",
        joins=3,
        sql="""\
/*+ sel(date_dim {d_sel}) sel(item {i_sel}) sel(store {s_sel}) */
select store.s_state, sum(store_sales.ss_net_profit)
from store_sales, date_dim, item, store
where store_sales.ss_sold_date_sk = date_dim.d_date_sk
  and store_sales.ss_item_sk = item.i_item_sk
  and store_sales.ss_store_sk = store.s_store_sk
  and date_dim.d_year = {year}
  and item.i_category = '{category}'
  and store.s_state = '{state}'
""",
        params=(
            _sel("d_sel", 0.002, 0.2),
            _sel("i_sel", 0.01, 0.3),
            _sel("s_sel", 0.05, 0.5),
            _choice("year", *_YEARS),
            _choice("category", *_CATEGORIES),
            _choice("state", *_STATES),
        ),
    ),
    QueryTemplate(
        name="ss_customer_funnel",
        joins=4,
        sql="""\
/*+ sel(date_dim {d_sel}) sel(store 0.25) sel(customer {c_sel}) */
select customer.c_customer_sk, count(*)
from store_sales, date_dim, store, customer, item
where store_sales.ss_sold_date_sk = date_dim.d_date_sk
  and store_sales.ss_store_sk = store.s_store_sk
  and store_sales.ss_customer_sk = customer.c_customer_sk
  and store_sales.ss_item_sk = item.i_item_sk
  and date_dim.d_year = {year}
  and store.s_state = '{state}'
""",
        params=(
            _sel("d_sel", 0.002, 0.2),
            _sel("c_sel", 0.05, 0.8),
            _choice("year", *_YEARS),
            _choice("state", *_STATES),
        ),
    ),
    QueryTemplate(
        name="ss_address_rollup",
        joins=5,
        sql="""\
/*+ sel(date_dim {d_sel}) sel(item {i_sel}) sel(customer_address {ca_sel}) */
select customer_address.ca_state, sum(store_sales.ss_ext_sales_price)
from store_sales, date_dim, item, customer, customer_address, store
where store_sales.ss_sold_date_sk = date_dim.d_date_sk
  and store_sales.ss_item_sk = item.i_item_sk
  and store_sales.ss_customer_sk = customer.c_customer_sk
  and customer.c_current_addr_sk = customer_address.ca_address_sk
  and store_sales.ss_store_sk = store.s_store_sk
  and date_dim.d_year = {year}
  and item.i_category = '{category}'
  and customer_address.ca_state = '{state}'
""",
        params=(
            _sel("d_sel", 0.002, 0.2),
            _sel("i_sel", 0.01, 0.3),
            _sel("ca_sel", 0.01, 0.2),
            _choice("year", *_YEARS),
            _choice("category", *_CATEGORIES),
            _choice("state", *_STATES),
        ),
    ),
    QueryTemplate(
        name="ss_demographics",
        joins=6,
        sql="""\
/*+ sel(date_dim {d_sel}) sel(customer_demographics {cd_sel}) \
sel(household_demographics {hd_sel}) */
select customer_demographics.cd_gender, count(*)
from store_sales, date_dim, item, store, customer,
     customer_demographics, household_demographics
where store_sales.ss_sold_date_sk = date_dim.d_date_sk
  and store_sales.ss_item_sk = item.i_item_sk
  and store_sales.ss_store_sk = store.s_store_sk
  and store_sales.ss_customer_sk = customer.c_customer_sk
  and store_sales.ss_cdemo_sk = customer_demographics.cd_demo_sk
  and store_sales.ss_hdemo_sk = household_demographics.hd_demo_sk
  and date_dim.d_year = {year}
  and customer_demographics.cd_gender = '{gender}'
""",
        params=(
            _sel("d_sel", 0.002, 0.2),
            _sel("cd_sel", 0.2, 0.7),
            _sel("hd_sel", 0.02, 0.4),
            _choice("year", *_YEARS),
            _choice("gender", "F", "M"),
        ),
    ),
    QueryTemplate(
        name="ss_promo_full",
        joins=7,
        sql="""\
/*+ sel(date_dim {d_sel}) sel(item {i_sel}) sel(promotion {p_sel}) \
sel(customer_address {ca_sel}) */
select promotion.p_promo_sk, sum(store_sales.ss_net_profit)
from store_sales, date_dim, item, store, customer,
     customer_address, household_demographics, promotion
where store_sales.ss_sold_date_sk = date_dim.d_date_sk
  and store_sales.ss_item_sk = item.i_item_sk
  and store_sales.ss_store_sk = store.s_store_sk
  and store_sales.ss_customer_sk = customer.c_customer_sk
  and customer.c_current_addr_sk = customer_address.ca_address_sk
  and store_sales.ss_hdemo_sk = household_demographics.hd_demo_sk
  and store_sales.ss_promo_sk = promotion.p_promo_sk
  and date_dim.d_year = {year}
  and promotion.p_channel_email = 'N'
  and customer_address.ca_state = '{state}'
""",
        params=(
            _sel("d_sel", 0.002, 0.2),
            _sel("i_sel", 0.01, 0.3),
            _sel("p_sel", 0.1, 0.6),
            _sel("ca_sel", 0.01, 0.2),
            _choice("year", *_YEARS),
            _choice("state", *_STATES),
        ),
    ),
)

_BY_NAME: Dict[str, QueryTemplate] = {t.name: t for t in TEMPLATES}

#: Smallest and largest shipped join counts (the redbench banding).
MIN_JOINS = min(t.joins for t in TEMPLATES)
MAX_JOINS = max(t.joins for t in TEMPLATES)


def template_names() -> Tuple[str, ...]:
    """All template names, in band order."""
    return tuple(t.name for t in TEMPLATES)


def get_template(name: str) -> QueryTemplate:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown query template {name!r}; available: "
            f"{', '.join(template_names())}"
        ) from None


def templates_by_band(
    min_joins: int = MIN_JOINS, max_joins: int = MAX_JOINS
) -> Dict[int, List[QueryTemplate]]:
    """Templates grouped by join count, restricted to ``[min, max]`` joins."""
    grouped: Dict[int, List[QueryTemplate]] = {}
    for template in TEMPLATES:
        if min_joins <= template.joins <= max_joins:
            grouped.setdefault(template.joins, []).append(template)
    return dict(sorted(grouped.items()))


# ----------------------------------------------------------------------
# Seeded instantiation
# ----------------------------------------------------------------------
def instantiate_template(name: str, seed: int) -> str:
    """Render one template into concrete SQL text, deterministically.

    Parameters are drawn in declaration order from one string-seeded
    generator; selectivities are log-uniform and formatted with six
    significant digits (the text is the source of truth — the parsed float is
    whatever the literal parses to, identically in every process).
    """
    template = get_template(name)
    rng = random.Random(f"{name}:{seed}")
    values: Dict[str, str] = {}
    for param in template.params:
        if param.kind == "selectivity":
            drawn = 10.0 ** rng.uniform(
                math.log10(param.low), math.log10(param.high)
            )
            values[param.name] = f"{min(param.high, max(param.low, drawn)):.6g}"
        elif param.kind == "choice":
            values[param.name] = rng.choice(param.options)
        else:  # pragma: no cover - guarded by the dataclass contract
            raise ValueError(f"unknown parameter kind {param.kind!r}")
    return template.sql.format(**values)


def template_workload(name: str, seed: int) -> GeneratedQuery:
    """Instantiate and lower one template into an optimizer workload.

    The query name is ``template_<name>`` *without* the seed: two seeds that
    happen to draw identical parameters are the same workload (same
    fingerprint, shared cache entries), and the fingerprint difference
    between instantiations comes only from what actually differs — the
    hinted selectivities.
    """
    text = instantiate_template(name, seed)
    return sql_workload(text, template_schema(), name=f"template_{name}")
