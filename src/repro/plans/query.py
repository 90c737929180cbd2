"""Query model and table-set enumeration helpers.

A :class:`Query` wraps a :class:`~repro.catalog.cardinality.JoinGraph` (tables,
join predicates, base selectivities) plus a human-readable name.  The dynamic
programs iterate over subsets of the query's tables and over splits of each
subset into two non-empty, disjoint parts; the helpers :func:`table_subsets`
and :func:`proper_splits` implement those enumerations, and :func:`plan_order`
combines them into the search space every dynamic program walks.

Table sets are represented as ``frozenset`` of table names throughout the code
base -- hashable, directly usable as dictionary keys for the per-table-set plan
sets (``Res^q`` and ``Cand^q`` in the paper's notation).
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.catalog.cardinality import JoinGraph, JoinPredicate

TableSet = FrozenSet[str]


class Query:
    """A join query: a set of tables plus the join graph connecting them.

    Parameters
    ----------
    name:
        Identifier used in reports (e.g. ``"tpch_q3"`` or ``"tpch_q5_block0"``).
    join_graph:
        The tables, join predicates and base-table selectivities.
    """

    def __init__(self, name: str, join_graph: JoinGraph):
        if not name:
            raise ValueError("query name must be non-empty")
        self.name = name
        self._join_graph = join_graph
        self._tables: TableSet = frozenset(join_graph.tables)

    # ------------------------------------------------------------------
    @property
    def join_graph(self) -> JoinGraph:
        return self._join_graph

    @property
    def tables(self) -> TableSet:
        """The set ``Q`` of tables that need to be joined."""
        return self._tables

    @property
    def table_count(self) -> int:
        """Number of tables ``n = |Q|``."""
        return len(self._tables)

    def __len__(self) -> int:
        return len(self._tables)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Query({self.name!r}, tables={sorted(self._tables)})"

    # ------------------------------------------------------------------
    def subsets(self, min_size: int = 1) -> Iterator[TableSet]:
        """All subsets of the query tables with at least ``min_size`` tables."""
        return table_subsets(self._tables, min_size=min_size)

    def subsets_of_size(self, size: int) -> Iterator[TableSet]:
        """All subsets with exactly ``size`` tables."""
        for combo in itertools.combinations(sorted(self._tables), size):
            yield frozenset(combo)

    def splits(self, tables: Iterable[str]) -> Iterator[Tuple[TableSet, TableSet]]:
        """All splits of ``tables`` into two non-empty disjoint parts.

        Each unordered split is returned once (the pair ``(q1, q2)`` is emitted
        but not ``(q2, q1)``), matching the enumeration in Algorithm 2 where
        the combination step itself is symmetric.
        """
        return proper_splits(frozenset(tables))

    def is_connected(self, tables: Iterable[str]) -> bool:
        """Whether the table subset is connected in the join graph."""
        return self._join_graph.is_connected(tables)


def table_subsets(tables: Iterable[str], min_size: int = 1) -> Iterator[TableSet]:
    """Enumerate subsets of ``tables`` ordered by increasing cardinality.

    The bottom-up dynamic programs rely on this ordering: plans for smaller
    table sets must exist before larger sets are considered.
    """
    ordered = sorted(set(tables))
    for size in range(min_size, len(ordered) + 1):
        for combo in itertools.combinations(ordered, size):
            yield frozenset(combo)


def proper_splits(tables: TableSet) -> Iterator[Tuple[TableSet, TableSet]]:
    """Enumerate unordered splits of a table set into two non-empty parts.

    For a set of ``k`` tables there are ``2^(k-1) - 1`` such splits.  The split
    is canonicalized by always keeping the lexicographically smallest table in
    the first part, which guarantees that each unordered split appears exactly
    once.
    """
    ordered = sorted(tables)
    if len(ordered) < 2:
        return
    anchor = ordered[0]
    rest = ordered[1:]
    for size in range(0, len(rest)):
        for combo in itertools.combinations(rest, size):
            left = frozenset((anchor,) + combo)
            right = tables - left
            if right:
                yield left, right


def plan_order(
    query: Query, allow_cross_products: bool = False
) -> List[Tuple[TableSet, List[Tuple[TableSet, TableSet]]]]:
    """The search space: table subsets of size >= 2 with their admissible splits.

    Subsets come in :func:`table_subsets` order (bottom-up DP order), splits
    in :func:`proper_splits` order.  Without cross products a subset is
    admissible when it is connected in the join graph (single tables always
    are), and a split is admissible when both parts are and a join predicate
    connects them.  Subsets without an admissible split are left out.
    """
    admissible = {
        subset
        for subset in table_subsets(query.tables, min_size=1)
        if len(subset) == 1 or allow_cross_products or query.is_connected(subset)
    }
    order: List[Tuple[TableSet, List[Tuple[TableSet, TableSet]]]] = []
    for subset in table_subsets(query.tables, min_size=2):
        if subset not in admissible:
            continue
        splits = [
            (left, right)
            for left, right in proper_splits(subset)
            if left in admissible
            and right in admissible
            and (
                allow_cross_products
                or query.join_graph.predicates_between(left, right)
            )
        ]
        if splits:
            order.append((subset, splits))
    return order
