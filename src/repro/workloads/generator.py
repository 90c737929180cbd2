"""Synthetic schema and query generation.

The property-based tests and the ablation benchmarks need many small queries
with controllable join-graph shapes and data distributions.  The
:class:`SyntheticWorkloadGenerator` builds schemas and queries with

* a chosen join *topology* (chain, star, cycle, clique),
* seeded-random table cardinalities and filter selectivities,
* a fully deterministic output for a given seed, so failing examples are
  reproducible.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog.cardinality import JoinGraph, JoinPredicate
from repro.catalog.schema import Column, ForeignKey, Schema, Table
from repro.catalog.statistics import StatisticsCatalog
from repro.plans.query import Query


class Topology(enum.Enum):
    """Shape of the generated join graph."""

    CHAIN = "chain"
    STAR = "star"
    CYCLE = "cycle"
    CLIQUE = "clique"


@dataclass(frozen=True)
class GeneratedQuery:
    """A synthetic query bundled with its schema and statistics."""

    query: Query
    schema: Schema
    statistics: StatisticsCatalog

    @property
    def table_count(self) -> int:
        return self.query.table_count


class SyntheticWorkloadGenerator:
    """Deterministic generator of synthetic schemas and join queries.

    Parameters
    ----------
    seed:
        Seed for the internal random generator.
    min_rows, max_rows:
        Range of base-table cardinalities (log-uniformly distributed).
    """

    def __init__(
        self,
        seed: int = 0,
        min_rows: int = 100,
        max_rows: int = 1_000_000,
    ):
        if min_rows <= 0 or max_rows < min_rows:
            raise ValueError("row-count range must satisfy 0 < min_rows <= max_rows")
        self._random = random.Random(seed)
        self._min_rows = min_rows
        self._max_rows = max_rows
        self._query_counter = 0

    # ------------------------------------------------------------------
    def generate(
        self,
        table_count: int,
        topology: Topology = Topology.CHAIN,
        selectivity_range: Tuple[float, float] = (0.05, 1.0),
    ) -> GeneratedQuery:
        """Generate one query with the requested number of tables and topology."""
        if table_count < 1:
            raise ValueError("table_count must be at least 1")
        low, high = selectivity_range
        if not 0.0 < low <= high <= 1.0:
            raise ValueError("selectivity_range must satisfy 0 < low <= high <= 1")
        self._query_counter += 1
        prefix = f"t{self._query_counter}"
        table_names = [f"{prefix}_{i}" for i in range(table_count)]
        tables = [self._make_table(name) for name in table_names]
        edges = self._edges(table_names, topology)
        foreign_keys = [
            ForeignKey(left, "join_key", right, "join_key") for left, right in edges
        ]
        schema = Schema(f"synthetic_{self._query_counter}", tables, foreign_keys)
        statistics = StatisticsCatalog(schema)
        predicates = [
            JoinPredicate(left, "join_key", right, "join_key") for left, right in edges
        ]
        selectivities = {
            name: self._random.uniform(low, high) for name in table_names
        }
        join_graph = JoinGraph(
            tables=table_names,
            predicates=predicates,
            base_selectivities=selectivities,
        )
        query = Query(f"synthetic_q{self._query_counter}", join_graph)
        return GeneratedQuery(query=query, schema=schema, statistics=statistics)

    def generate_many(
        self,
        count: int,
        table_count: int,
        topology: Topology = Topology.CHAIN,
    ) -> List[GeneratedQuery]:
        """Generate several queries with the same shape."""
        return [self.generate(table_count, topology) for _ in range(count)]

    # ------------------------------------------------------------------
    def _make_table(self, name: str) -> Table:
        log_low = _log10(self._min_rows)
        log_high = _log10(self._max_rows)
        rows = int(round(10 ** self._random.uniform(log_low, log_high)))
        rows = max(self._min_rows, min(self._max_rows, rows))
        distinct = max(1, int(rows * self._random.uniform(0.1, 1.0)))
        columns = [
            Column("id", "int", distinct_values=rows),
            Column("join_key", "int", distinct_values=distinct),
            Column("payload", "text"),
        ]
        return Table(name, columns, row_count=rows)

    def _edges(
        self, table_names: Sequence[str], topology: Topology
    ) -> List[Tuple[str, str]]:
        names = list(table_names)
        if len(names) == 1:
            return []
        if topology is Topology.CHAIN:
            return list(zip(names, names[1:]))
        if topology is Topology.STAR:
            center, *others = names
            return [(center, other) for other in others]
        if topology is Topology.CYCLE:
            chain = list(zip(names, names[1:]))
            if len(names) > 2:
                # A two-table "cycle" degenerates to a single edge; only close
                # the ring when it produces a new edge.
                chain.append((names[-1], names[0]))
            return chain
        if topology is Topology.CLIQUE:
            edges = []
            for i, left in enumerate(names):
                for right in names[i + 1 :]:
                    edges.append((left, right))
            return edges
        raise ValueError(f"unknown topology {topology!r}")


def _log10(value: float) -> float:
    import math

    return math.log10(value)


# ----------------------------------------------------------------------
# Stateless helpers for sweeps and determinism checks
# ----------------------------------------------------------------------
def generated_workload(
    seed: int,
    table_count: int,
    topology: "Topology | str" = Topology.CHAIN,
) -> GeneratedQuery:
    """One synthetic query, fully determined by ``(seed, table_count, topology)``.

    A fresh generator is built per call, so the output is independent of any
    other generation that happened in the process: the three values produce
    the same query in every process, which is what ``gen:`` workload specs
    and the synthetic sweeps rely on.
    """
    topo = topology if isinstance(topology, Topology) else Topology(topology)
    return SyntheticWorkloadGenerator(seed=seed).generate(table_count, topo)


def workload_fingerprint(generated: GeneratedQuery) -> str:
    """Stable hex digest of everything that defines a generated workload.

    Covers the schema (tables, row counts, column cardinalities), the foreign
    keys, the join predicates and the base selectivities.  Two processes that
    generate from the same seed must produce the same fingerprint; the
    determinism regression tests check exactly that, and the service frontier
    cache keys requests by it.
    """
    import hashlib
    import json

    schema = generated.schema
    graph = generated.query.join_graph
    payload = {
        "query": generated.query.name,
        "schema": schema.name,
        "tables": [
            {
                "name": table.name,
                "rows": table.row_count,
                "columns": [
                    [column.name, column.data_type, column.distinct_values]
                    for column in table.columns
                ],
            }
            for table in sorted(schema.tables, key=lambda t: t.name)
        ],
        "foreign_keys": sorted(
            [fk.from_table, fk.from_column, fk.to_table, fk.to_column]
            for fk in schema.foreign_keys
        ),
        "predicates": sorted(
            [p.left_table, p.left_column, p.right_table, p.right_column]
            for p in graph.predicates
        ),
        "selectivities": {
            table: repr(graph.base_selectivity(table)) for table in graph.tables
        },
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
