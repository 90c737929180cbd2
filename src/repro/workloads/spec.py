"""One resolver for every workload-spec family.

Workloads are addressed by string so that every surface — the request API,
the CLI, the bench harness, the service wire protocol — speaks the same
language.  This module is the single place that language is defined; the
historical per-surface copies of the ``tpch:``/``gen:`` prefix handling all
delegate here.

Spec families
-------------

* ``tpch:q03`` / ``tpch_q03`` / ``q03`` — a TPC-H join block by name,
  parsed from its shipped SQL text (:mod:`repro.workloads.tpch`).
* ``gen:<topology>:<tables>:<seed>`` — a synthetic query from the seeded
  generator, e.g. ``gen:star:6:42`` (topologies: chain, star, cycle, clique).
* ``sql:<text>`` — real SQL: either inline (anything starting with ``select``
  or a hint comment), a path ending in ``.sql``, or a shipped TPC-H text as
  ``sql:tpch/q03``.  Inline/file SQL is resolved against the shipped TPC-H
  schema when every referenced table exists there, else against the TPC-DS
  template schema (:mod:`repro.workloads.templates`).
* ``template:<name>:<seed>`` — a seeded instantiation of a TPC-DS-style
  query template, e.g. ``template:ss_item_date:7``.

Unknown families and malformed specs fail with one consistent error that
names the valid families.

Cache identity
--------------

:func:`canonical_spec_id` maps a resolved workload to a spelling-independent
identifier used by the service frontier cache: generated specs are identified
by the full :func:`~repro.workloads.generator.workload_fingerprint`, TPC-H
specs by block name plus scale factor (so ``q03`` == ``tpch:q03`` ==
``tpch_q03``), and ``sql:``/``template:`` specs by the fingerprint of the
lowered workload — two templates that instantiate to the same parameters, or
two textual spellings of the same query, share one cache entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from repro.catalog.schema import Schema
from repro.catalog.statistics import StatisticsCatalog
from repro.plans.query import Query
from repro.workloads.generator import (
    GeneratedQuery,
    Topology,
    generated_workload,
    workload_fingerprint,
)
from repro.workloads.sql import parse_sql, sql_text_digest, sql_workload
from repro.workloads.tpch import TPCH_SQL, tpch_block, tpch_schema, tpch_statistics
from repro.workloads import templates

GENERATED_PREFIX = "gen"
SQL_PREFIX = "sql"
TEMPLATE_PREFIX = "template"

TOPOLOGY_NAMES = tuple(topology.value for topology in Topology)

#: One-line grammar summary, shared by resolver errors and the CLI help.
FAMILY_HELP = (
    "a TPC-H block (tpch:q03, tpch_q03 or q03), "
    "gen:<topology>:<tables>:<seed> (e.g. gen:star:6:42), "
    "sql:<select ...|path.sql|tpch/qXX>, or "
    "template:<name>:<seed> (e.g. template:ss_item_date:7)"
)


@dataclass(frozen=True)
class ResolvedWorkload:
    """A workload spec resolved into a query plus its statistics catalog."""

    spec: str
    query: Query
    statistics: StatisticsCatalog


# ----------------------------------------------------------------------
# Family parsers
# ----------------------------------------------------------------------
def parse_generated_spec(spec: str) -> Tuple[str, int, int]:
    """Parse ``gen:<topology>:<tables>:<seed>`` into its three components."""
    parts = spec.split(":")
    if len(parts) != 4 or parts[0] != GENERATED_PREFIX:
        raise ValueError(
            f"malformed generated-workload spec {spec!r}; expected "
            "gen:<topology>:<tables>:<seed>, e.g. gen:star:6:42"
        )
    _, topology, tables_text, seed_text = parts
    if topology not in TOPOLOGY_NAMES:
        raise ValueError(
            f"unknown topology {topology!r} in {spec!r}; "
            f"expected one of: {', '.join(TOPOLOGY_NAMES)}"
        )
    try:
        tables = int(tables_text)
        seed = int(seed_text)
    except ValueError:
        raise ValueError(
            f"table count and seed in {spec!r} must be integers"
        ) from None
    if tables < 1:
        raise ValueError(f"table count in {spec!r} must be at least 1")
    return topology, tables, seed


def parse_template_spec(spec: str) -> Tuple[str, int]:
    """Parse ``template:<name>:<seed>`` into its two components."""
    parts = spec.split(":")
    if len(parts) != 3 or parts[0] != TEMPLATE_PREFIX:
        raise ValueError(
            f"malformed template spec {spec!r}; expected "
            "template:<name>:<seed>, e.g. template:ss_item_date:7"
        )
    _, name, seed_text = parts
    if name not in templates.template_names():
        raise ValueError(
            f"unknown template {name!r} in {spec!r}; available: "
            f"{', '.join(templates.template_names())}"
        )
    try:
        seed = int(seed_text)
    except ValueError:
        raise ValueError(f"seed in {spec!r} must be an integer") from None
    return name, seed


def _scale_factor(config) -> float:
    return config.tpch_scale_factor if config is not None else 1.0


def _resolve_sql_text(spec: str, text: str, config) -> ResolvedWorkload:
    """Lower inline/file SQL against whichever shipped schema fits it."""
    parsed = parse_sql(text)
    referenced = sorted({ref.table for ref in parsed.tables})
    name = f"sql_{sql_text_digest(text)}"
    candidates: List[Tuple[Schema, Optional[StatisticsCatalog]]] = [
        (tpch_schema(_scale_factor(config)), tpch_statistics(_scale_factor(config))),
        (templates.template_schema(), None),
    ]
    for schema, statistics in candidates:
        if all(schema.has_table(table) for table in referenced):
            generated = sql_workload(text, schema, name=name, statistics=statistics)
            return ResolvedWorkload(
                spec=spec,
                query=generated.query,
                statistics=generated.statistics,
            )
    unknown = [
        table
        for table in referenced
        if not any(schema.has_table(table) for schema, _ in candidates)
    ]
    raise ValueError(
        f"SQL spec references tables {unknown} that exist in neither the "
        "TPC-H schema nor the TPC-DS template schema; sql: specs must target "
        "one of the shipped schemas"
    )


def _resolve_sql_spec(spec: str, config) -> ResolvedWorkload:
    body = spec[len(SQL_PREFIX) + 1:].strip()
    if not body:
        raise ValueError(
            f"empty sql spec {spec!r}; expected sql:<select ...>, "
            "sql:<path>.sql, or sql:tpch/<block> (e.g. sql:tpch/q03)"
        )
    if body.startswith("tpch/"):
        block = body[len("tpch/"):]
        try:
            generated = tpch_block(block, _scale_factor(config))
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        return ResolvedWorkload(
            spec=spec, query=generated.query, statistics=generated.statistics
        )
    lowered = body.lower()
    if lowered.startswith("select") or lowered.startswith("/*"):
        return _resolve_sql_text(spec, body, config)
    if lowered.endswith(".sql"):
        path = Path(body)
        if not path.is_file():
            raise ValueError(f"SQL file {body!r} does not exist")
        return _resolve_sql_text(spec, path.read_text(), config)
    raise ValueError(
        f"malformed sql spec {spec!r}; expected sql:<select ...>, "
        "sql:<path>.sql, or sql:tpch/<block> (e.g. sql:tpch/q03)"
    )


def _resolve_tpch_spec(spec: str, config) -> Optional[ResolvedWorkload]:
    """Resolve a TPC-H block name, or ``None`` if the name is unknown."""
    name = spec[len("tpch:"):] if spec.startswith("tpch:") else spec
    short = name[len("tpch_"):] if name.startswith("tpch_") else name
    if short not in TPCH_SQL:
        return None
    generated = tpch_block(short, _scale_factor(config))
    return ResolvedWorkload(
        spec=spec, query=generated.query, statistics=generated.statistics
    )


# ----------------------------------------------------------------------
# The resolver
# ----------------------------------------------------------------------
def resolve_workload(spec: str, config=None) -> ResolvedWorkload:
    """Resolve a workload spec string into a query and statistics.

    ``config`` is an optional :class:`~repro.bench.config.ExperimentConfig`;
    only its TPC-H scale factor is consulted (default 1.0).  See the module
    docstring for the spec grammar.
    """
    spec = spec.strip()
    if spec.startswith(GENERATED_PREFIX + ":"):
        topology, tables, seed = parse_generated_spec(spec)
        generated = generated_workload(seed, tables, topology)
        return ResolvedWorkload(
            spec=spec, query=generated.query, statistics=generated.statistics
        )
    if spec.startswith(TEMPLATE_PREFIX + ":"):
        name, seed = parse_template_spec(spec)
        generated = templates.template_workload(name, seed)
        return ResolvedWorkload(
            spec=spec, query=generated.query, statistics=generated.statistics
        )
    if spec.startswith(SQL_PREFIX + ":"):
        return _resolve_sql_spec(spec, config)
    resolved = _resolve_tpch_spec(spec, config)
    if resolved is not None:
        return resolved
    known = ", ".join(f"tpch_{name}" for name in TPCH_SQL)
    raise ValueError(
        f"unknown query or workload spec {spec!r}; expected {FAMILY_HELP}; "
        f"known TPC-H blocks: {known}"
    )


# ----------------------------------------------------------------------
# Cache identity
# ----------------------------------------------------------------------
def canonical_spec_id(
    spec: str,
    query: Query,
    statistics: StatisticsCatalog,
    tpch_scale_factor: float,
) -> str:
    """A spelling-independent identifier of an already-resolved workload.

    Computed over the *resolved* query and statistics (submit is a hot path;
    the workload is never regenerated just to fingerprint it).  ``gen:`` and
    ``sql:``/``template:`` specs use the full workload fingerprint; TPC-H
    specs use the block name plus the statistics scale factor, so every
    spelling of a block shares one identity.
    """
    spec = spec.strip()
    if spec.startswith(GENERATED_PREFIX + ":"):
        generated = GeneratedQuery(
            query=query, schema=statistics.schema, statistics=statistics
        )
        return f"gen:{workload_fingerprint(generated)}"
    if spec.startswith(SQL_PREFIX + ":") or spec.startswith(TEMPLATE_PREFIX + ":"):
        generated = GeneratedQuery(
            query=query, schema=statistics.schema, statistics=statistics
        )
        return f"sql:{workload_fingerprint(generated)}"
    return f"tpch:{query.name}:{tpch_scale_factor}"
