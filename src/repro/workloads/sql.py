"""Dependency-free SQL frontend: parse real SQL into optimizer workloads.

The optimizer consumes :class:`~repro.plans.query.Query` objects — a join
graph over named tables with per-table base selectivities.  This module closes
the gap between that model and real SQL text with three stdlib-only layers:

* :func:`tokenize` — a small SQL tokenizer (identifiers, numbers, strings,
  operators, punctuation) that strips comments but *captures* optimizer hint
  comments (``/*+ ... */``),
* :func:`parse_sql` — a select/from/where walker producing a
  :class:`ParsedQuery`: the FROM tables (with aliases, in declaration order),
  the conjunctive WHERE conditions split into equi-join predicates
  (``a.x = b.y`` across two tables) and single-table filter predicates, and
  any selectivity hints,
* :func:`lower_parsed` — lowering into the existing workload model: an
  effective :class:`~repro.catalog.schema.Schema` (alias references clone the
  base table with identical statistics, exactly like the hand-built
  ``nation2``), a :class:`~repro.catalog.cardinality.JoinGraph` whose table
  order is the FROM order, and estimated base selectivities per table.

Selectivity estimation follows the classic System-R defaults, with one
extension: a hint comment ``/*+ sel(<table> <value>) */`` pins a table's base
selectivity to an exact literal.  The shipped TPC-H SQL texts
(:mod:`repro.workloads.tpch`) use hints to carry each block's selectivity
estimates exactly.  Unhinted filters are estimated from the statistics
catalog:

========================  =============================================
condition                 selectivity
========================  =============================================
``col = literal``         ``1 / distinct_values`` (0.01 when unknown)
``col <> literal``        ``1 - eq``
``col < / <= / > / >=``   1/3
``col BETWEEN a AND b``   1/4
``col IN (v1, .., vk)``   ``k * eq`` (capped at 1)
``col LIKE 'pattern'``    0.1
========================  =============================================

Multiple filters on one table combine by independence (product).  The result
of lowering is a :class:`~repro.workloads.generator.GeneratedQuery`, so SQL
workloads plug into everything built for generated ones — including
:func:`~repro.workloads.generator.workload_fingerprint`, which keys the
service frontier cache.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.catalog.cardinality import JoinGraph, JoinPredicate
from repro.catalog.schema import Column, ForeignKey, Schema, Table
from repro.catalog.statistics import StatisticsCatalog
from repro.plans.query import Query
from repro.workloads.generator import GeneratedQuery

#: Default equality selectivity when the column has no modelled statistics.
UNKNOWN_EQ_SELECTIVITY = 0.01
#: System-R default for open range predicates (``<``, ``>``, ``<=``, ``>=``).
RANGE_SELECTIVITY = 1.0 / 3.0
#: System-R default for ``BETWEEN``.
BETWEEN_SELECTIVITY = 0.25
#: Default for ``LIKE`` patterns.
LIKE_SELECTIVITY = 0.1


class SqlParseError(ValueError):
    """Raised when SQL text cannot be parsed into a join-block workload."""


# ----------------------------------------------------------------------
# Tokenizer
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "number" | "string" | "op" | "punct"
    value: str
    position: int  # character offset in the original text (for errors)


_HINT_RE = re.compile(r"/\*\+(.*?)\*/", re.DOTALL)
_BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)
_LINE_COMMENT_RE = re.compile(r"--[^\n]*")
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|<>|!=|=|<|>)
  | (?P<punct>[(),.;*])
    """,
    re.VERBOSE,
)

_SEL_HINT_RE = re.compile(
    r"sel\s*\(\s*([A-Za-z_][A-Za-z0-9_]*)\s+([0-9.eE+-]+)\s*\)"
)


def extract_hints(text: str) -> Dict[str, float]:
    """Collect ``/*+ sel(table value) */`` hints from the raw SQL text.

    Several ``sel(...)`` entries may share one hint comment; a repeated table
    name keeps the last value.  Malformed hint bodies raise — a hint that is
    silently dropped would produce a *valid but different* workload, which is
    the worst possible failure mode for a fingerprint-keyed cache.
    """
    hints: Dict[str, float] = {}
    for match in _HINT_RE.finditer(text):
        body = match.group(1).strip()
        if not body:
            continue
        consumed = _SEL_HINT_RE.sub("", body).strip().strip(",").strip()
        if consumed:
            raise SqlParseError(
                f"unrecognized hint {body!r}; expected sel(<table> <value>) entries"
            )
        for table, value_text in _SEL_HINT_RE.findall(body):
            try:
                value = float(value_text)
            except ValueError:
                raise SqlParseError(
                    f"hint sel({table} {value_text}): not a number"
                ) from None
            if not 0.0 < value <= 1.0:
                raise SqlParseError(
                    f"hint sel({table} {value_text}): selectivity must be in (0, 1]"
                )
            hints[table.lower()] = value
    return hints


def strip_comments(text: str) -> str:
    """Remove line and block comments (including hint comments)."""
    return _LINE_COMMENT_RE.sub(" ", _BLOCK_COMMENT_RE.sub(" ", text))


def tokenize(text: str) -> List[Token]:
    """Tokenize comment-stripped SQL text; raises on unexpected characters."""
    tokens: List[Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            snippet = text[position : position + 20]
            raise SqlParseError(
                f"unexpected character at offset {position}: {snippet!r}"
            )
        position = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        tokens.append(Token(kind=kind, value=match.group(), position=match.start()))
    return tokens


#: Keywords that terminate the WHERE clause of the outer block.
_TRAILING_KEYWORDS = ("group", "order", "having", "limit", "union", "fetch")


# ----------------------------------------------------------------------
# Parsed representation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TableRef:
    """One FROM-clause entry: base table plus the name it is known by."""

    table: str
    alias: str


@dataclass(frozen=True)
class ParsedJoin:
    """An equi-join condition ``left.left_column = right.right_column``."""

    left: str
    left_column: str
    right: str
    right_column: str


@dataclass(frozen=True)
class ParsedFilter:
    """A single-table condition, kept for selectivity estimation."""

    table: str
    column: str
    operator: str  # "=", "<>", "<", "<=", ">", ">=", "between", "in", "like"
    values: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ParsedQuery:
    """The join-block skeleton extracted from one SELECT statement."""

    tables: Tuple[TableRef, ...]
    joins: Tuple[ParsedJoin, ...]
    filters: Tuple[ParsedFilter, ...]
    hints: Mapping[str, float] = field(default_factory=dict)

    def aliases(self) -> Tuple[str, ...]:
        return tuple(ref.alias for ref in self.tables)


class _Cursor:
    """A small token cursor with keyword-aware helpers."""

    def __init__(self, tokens: Sequence[Token]):
        self._tokens = list(tokens)
        self._index = 0

    def done(self) -> bool:
        return self._index >= len(self._tokens)

    def peek(self, offset: int = 0) -> Optional[Token]:
        index = self._index + offset
        return self._tokens[index] if index < len(self._tokens) else None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise SqlParseError("unexpected end of SQL text")
        self._index += 1
        return token

    def at_keyword(self, *keywords: str) -> bool:
        token = self.peek()
        return (
            token is not None
            and token.kind == "ident"
            and token.value.lower() in keywords
        )

    def expect_keyword(self, keyword: str) -> Token:
        if not self.at_keyword(keyword):
            token = self.peek()
            found = token.value if token is not None else "<end>"
            raise SqlParseError(f"expected {keyword.upper()}, found {found!r}")
        return self.next()

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        token = self.next()
        if token.kind != kind or (value is not None and token.value != value):
            raise SqlParseError(
                f"expected {value or kind!r}, found {token.value!r} "
                f"at offset {token.position}"
            )
        return token


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def parse_sql(text: str) -> ParsedQuery:
    """Parse one SELECT statement into its join-block skeleton.

    Supported grammar (case-insensitive keywords)::

        SELECT <anything without a top-level FROM>
        FROM table [AS] [alias] [, ...]
             [[INNER] JOIN table [AS] [alias] ON <condition> [AND ...]] ...
        [WHERE <condition> [AND <condition>] ...]
        [GROUP BY / ORDER BY / HAVING / LIMIT ... -- consumed and ignored]

    Conditions are conjunctive; each one is either an equi-join
    (``a.x = b.y`` over two different FROM entries) or a single-table filter
    (comparison with a literal, ``BETWEEN``, ``IN`` over literals, ``LIKE``).
    Disjunctions, subqueries and non-equi joins are rejected with a clear
    error — this is a join-graph extractor, not a general SQL engine.
    """
    hints = extract_hints(text)
    tokens = tokenize(strip_comments(text))
    cursor = _Cursor(tokens)
    cursor.expect_keyword("select")
    _skip_select_list(cursor)
    cursor.expect_keyword("from")
    tables, join_conditions = _parse_from(cursor)
    conditions: List[Tuple[Token, ...]] = list(join_conditions)
    if cursor.at_keyword("where"):
        cursor.next()
        conditions.extend(_split_conjunction(cursor))
    _skip_trailing(cursor)
    known = {ref.alias for ref in tables}
    for name in hints:
        if name not in known:
            raise SqlParseError(
                f"hint sel({name} ...) references a table that is not in FROM; "
                f"tables: {', '.join(sorted(known))}"
            )
    joins: List[ParsedJoin] = []
    filters: List[ParsedFilter] = []
    for condition in conditions:
        parsed = _classify_condition(condition, known)
        if isinstance(parsed, ParsedJoin):
            joins.append(parsed)
        else:
            filters.append(parsed)
    return ParsedQuery(
        tables=tuple(tables),
        joins=tuple(joins),
        filters=tuple(filters),
        hints=hints,
    )


def _skip_select_list(cursor: _Cursor) -> None:
    """Consume the select list up to the top-level FROM (depth-aware)."""
    depth = 0
    consumed = 0
    while True:
        token = cursor.peek()
        if token is None:
            raise SqlParseError("SELECT without FROM")
        if token.kind == "punct" and token.value == "(":
            depth += 1
        elif token.kind == "punct" and token.value == ")":
            depth -= 1
        elif depth == 0 and token.kind == "ident" and token.value.lower() == "from":
            if consumed == 0:
                raise SqlParseError("empty select list")
            return
        cursor.next()
        consumed += 1


def _parse_table_ref(cursor: _Cursor) -> TableRef:
    token = cursor.expect("ident")
    table = token.value.lower()
    if table in _TRAILING_KEYWORDS or table in ("where", "on", "join", "inner"):
        raise SqlParseError(f"expected a table name, found keyword {token.value!r}")
    alias = table
    if cursor.at_keyword("as"):
        cursor.next()
        alias = cursor.expect("ident").value.lower()
    elif (
        (nxt := cursor.peek()) is not None
        and nxt.kind == "ident"
        and nxt.value.lower()
        not in _TRAILING_KEYWORDS + ("where", "on", "join", "inner", "cross")
    ):
        alias = cursor.next().value.lower()
    return TableRef(table=table, alias=alias)


def _parse_from(
    cursor: _Cursor,
) -> Tuple[List[TableRef], List[Tuple[Token, ...]]]:
    """FROM clause: comma-joined refs plus explicit ``JOIN ... ON`` entries."""
    tables = [_parse_table_ref(cursor)]
    join_conditions: List[Tuple[Token, ...]] = []
    while True:
        token = cursor.peek()
        if token is None:
            break
        if token.kind == "punct" and token.value == ",":
            cursor.next()
            tables.append(_parse_table_ref(cursor))
            continue
        if cursor.at_keyword("inner"):
            cursor.next()
            cursor.expect_keyword("join")
            tables.append(_parse_table_ref(cursor))
            cursor.expect_keyword("on")
            join_conditions.extend(_split_conjunction(cursor, stop_at_join=True))
            continue
        if cursor.at_keyword("join"):
            cursor.next()
            tables.append(_parse_table_ref(cursor))
            cursor.expect_keyword("on")
            join_conditions.extend(_split_conjunction(cursor, stop_at_join=True))
            continue
        break
    seen: Dict[str, str] = {}
    for ref in tables:
        if ref.alias in seen:
            raise SqlParseError(
                f"duplicate table name {ref.alias!r} in FROM; "
                "alias the second occurrence (e.g. nation AS nation2)"
            )
        seen[ref.alias] = ref.table
    return tables, join_conditions


def _split_conjunction(
    cursor: _Cursor, stop_at_join: bool = False
) -> List[Tuple[Token, ...]]:
    """Split ``cond AND cond AND ...`` into token runs (depth-aware)."""
    conditions: List[Tuple[Token, ...]] = []
    current: List[Token] = []
    depth = 0
    while True:
        token = cursor.peek()
        if token is None:
            break
        if token.kind == "punct" and token.value == "(":
            depth += 1
        elif token.kind == "punct" and token.value == ")":
            depth -= 1
            if depth < 0:
                break
        elif token.kind == "punct" and token.value == ";":
            cursor.next()
            break
        elif depth == 0 and token.kind == "ident":
            lowered = token.value.lower()
            if lowered == "and" and current and _complete_condition(current):
                cursor.next()
                conditions.append(tuple(current))
                current = []
                continue
            if lowered == "or":
                raise SqlParseError(
                    "top-level OR is not supported; join blocks are conjunctive"
                )
            if lowered in _TRAILING_KEYWORDS:
                break
            if stop_at_join and lowered in ("join", "inner", "where"):
                break
        current.append(cursor.next())
    if current:
        conditions.append(tuple(current))
    return conditions


def _complete_condition(tokens: Sequence[Token]) -> bool:
    """Whether a token run already forms a complete condition.

    Needed to keep ``BETWEEN x AND y`` in one piece: the AND after BETWEEN is
    part of the condition, the *next* AND separates conditions.
    """
    lowered = [t.value.lower() for t in tokens if t.kind == "ident"]
    if "between" in lowered:
        # complete once the BETWEEN has both bounds: ident BETWEEN lit AND lit
        return any(t.kind in ("number", "string") for t in tokens[-1:]) and (
            "and" in lowered
        )
    return any(t.kind == "op" for t in tokens) or any(
        t.kind == "ident" and t.value.lower() in ("in", "like") for t in tokens
    )


def _column_ref(
    tokens: Sequence[Token], start: int, known: set
) -> Optional[Tuple[str, str, int]]:
    """Parse ``table.column`` or bare ``column`` at ``start``; returns
    ``(table_or_empty, column, next_index)``."""
    if start >= len(tokens) or tokens[start].kind != "ident":
        return None
    first = tokens[start].value.lower()
    if (
        start + 2 < len(tokens)
        and tokens[start + 1].kind == "punct"
        and tokens[start + 1].value == "."
        and tokens[start + 2].kind == "ident"
    ):
        return first, tokens[start + 2].value.lower(), start + 3
    return "", first, start + 1


def _classify_condition(tokens: Tuple[Token, ...], known: set):
    """One conjunct -> ParsedJoin (equi-join) or ParsedFilter."""
    if not tokens:
        raise SqlParseError("empty condition")
    if any(t.kind == "ident" and t.value.lower() == "select" for t in tokens):
        raise SqlParseError(
            "subqueries are not supported; optimize each block separately"
        )
    left = _column_ref(tokens, 0, known)
    if left is None:
        raise SqlParseError(
            f"condition must start with a column reference, found "
            f"{tokens[0].value!r}"
        )
    left_table, left_column, index = left
    if index < len(tokens) and tokens[index].kind == "op":
        operator = tokens[index].value
        operator = {"!=": "<>"}.get(operator, operator)
        rest = tokens[index + 1 :]
        right = _column_ref(rest, 0, known)
        if (
            operator == "="
            and right is not None
            and right[0]
            and right[0] in known
            and right[2] == len(rest)
        ):
            right_table, right_column, _ = right
            if left_table and left_table != right_table:
                _require_known(left_table, known)
                return ParsedJoin(
                    left=left_table,
                    left_column=left_column,
                    right=right_table,
                    right_column=right_column,
                )
        if not rest or any(t.kind == "ident" and t.value.lower() == "and" for t in rest):
            raise SqlParseError(
                f"cannot parse comparison after {left_column!r}"
            )
        if rest[0].kind in ("number", "string"):
            table = _filter_table(left_table, left_column, known)
            if operator not in ("=", "<>", "<", "<=", ">", ">="):
                raise SqlParseError(f"unsupported operator {operator!r}")
            return ParsedFilter(
                table=table,
                column=left_column,
                operator=operator,
                values=(rest[0].value,),
            )
        raise SqlParseError(
            f"unsupported right-hand side in condition on {left_column!r}"
        )
    # keyword-operated conditions: BETWEEN / IN / LIKE / NOT ...
    keywords = [
        t.value.lower() for t in tokens[index:] if t.kind == "ident"
    ]
    literals = tuple(
        t.value for t in tokens[index:] if t.kind in ("number", "string")
    )
    table = _filter_table(left_table, left_column, known)
    if keywords[:1] == ["between"]:
        if len(literals) != 2:
            raise SqlParseError(
                f"BETWEEN on {left_column!r} needs exactly two literal bounds"
            )
        return ParsedFilter(table, left_column, "between", literals)
    if keywords[:1] == ["in"] or keywords[:2] == ["not", "in"]:
        if not literals:
            raise SqlParseError(f"IN on {left_column!r} needs literal values")
        return ParsedFilter(table, left_column, "in", literals)
    if keywords[:1] == ["like"] or keywords[:2] == ["not", "like"]:
        return ParsedFilter(table, left_column, "like", literals)
    raise SqlParseError(
        f"unsupported condition on {left_column!r} "
        f"(keywords: {' '.join(keywords) or '<none>'})"
    )


def _require_known(table: str, known: set) -> None:
    if table not in known:
        raise SqlParseError(
            f"condition references table {table!r} which is not in FROM; "
            f"tables: {', '.join(sorted(known))}"
        )


def _filter_table(table: str, column: str, known: set) -> str:
    if table:
        _require_known(table, known)
        return table
    if len(known) == 1:
        return next(iter(known))
    raise SqlParseError(
        f"unqualified column {column!r} is ambiguous over tables "
        f"{', '.join(sorted(known))}; qualify it as <table>.{column}"
    )


def _skip_trailing(cursor: _Cursor) -> None:
    """Consume GROUP BY / ORDER BY / HAVING / LIMIT tails (ignored)."""
    while not cursor.done():
        cursor.next()


# ----------------------------------------------------------------------
# Selectivity estimation
# ----------------------------------------------------------------------
def estimate_filter_selectivity(
    filter_: ParsedFilter, table: Table, statistics: StatisticsCatalog
) -> float:
    """System-R style estimate of one filter (see the module table)."""
    if filter_.operator in ("=", "<>", "in"):
        if table.has_column(filter_.column):
            ndv = statistics.distinct_values(table.name, filter_.column)
            eq = 1.0 / max(1, ndv)
        else:
            eq = UNKNOWN_EQ_SELECTIVITY
        if filter_.operator == "=":
            return eq
        if filter_.operator == "<>":
            return max(1e-9, 1.0 - eq)
        return min(1.0, eq * max(1, len(filter_.values)))
    if filter_.operator in ("<", "<=", ">", ">="):
        return RANGE_SELECTIVITY
    if filter_.operator == "between":
        return BETWEEN_SELECTIVITY
    if filter_.operator == "like":
        return LIKE_SELECTIVITY
    raise SqlParseError(f"no selectivity rule for operator {filter_.operator!r}")


# ----------------------------------------------------------------------
# Lowering
# ----------------------------------------------------------------------
def lower_parsed(
    parsed: ParsedQuery,
    schema: Schema,
    name: str,
    statistics: Optional[StatisticsCatalog] = None,
) -> GeneratedQuery:
    """Lower a parsed query onto a schema; returns a reusable workload bundle.

    Every FROM entry must resolve in ``schema``: either directly by name, or
    as an alias of a base table — aliases that are themselves schema tables
    (the TPC-H ``nation2`` clone) resolve to the existing table, anything else
    clones the base table (columns, row count, statistics) under the alias
    name, mirroring how the hand-built schema models self-joins.  The join
    graph preserves the FROM order, because join enumeration identity depends
    on it.
    """
    statistics = statistics or StatisticsCatalog(schema)
    effective_schema = schema
    clones: List[Table] = []
    resolved: Dict[str, Table] = {}
    for ref in parsed.tables:
        if not schema.has_table(ref.table):
            raise SqlParseError(
                f"unknown table {ref.table!r}; schema {schema.name!r} has: "
                f"{', '.join(schema.table_names)}"
            )
        base = schema.table(ref.table)
        if ref.alias == ref.table or schema.has_table(ref.alias):
            resolved[ref.alias] = schema.table(ref.alias)
            continue
        clone = Table(
            ref.alias,
            base.columns,
            row_count=base.row_count,
            page_size_rows=base.page_size_rows,
        )
        clones.append(clone)
        resolved[ref.alias] = clone
    if clones:
        effective_schema = Schema(
            schema.name, list(schema.tables) + clones, schema.foreign_keys
        )
        statistics = StatisticsCatalog(effective_schema)
    if not parsed.joins and len(parsed.tables) > 1:
        raise SqlParseError(
            "no join predicates found between the FROM tables; "
            "cross products are not modelled"
        )
    predicates = [
        JoinPredicate(j.left, j.left_column, j.right, j.right_column)
        for j in parsed.joins
    ]
    selectivities: Dict[str, float] = {}
    for filter_ in parsed.filters:
        estimate = estimate_filter_selectivity(
            filter_, resolved[filter_.table], statistics
        )
        selectivities[filter_.table] = (
            selectivities.get(filter_.table, 1.0) * estimate
        )
    for table_name, value in parsed.hints.items():
        selectivities[table_name] = value  # hints pin the exact value
    selectivities = {
        table: max(value, 1e-9) for table, value in selectivities.items()
    }
    join_graph = JoinGraph(
        tables=list(parsed.aliases()),
        predicates=predicates,
        base_selectivities=selectivities,
    )
    query = Query(name, join_graph)
    return GeneratedQuery(
        query=query, schema=effective_schema, statistics=statistics
    )


def sql_text_digest(text: str) -> str:
    """Short digest of whitespace-normalized SQL text (names inline specs)."""
    normalized = " ".join(text.split()).lower()
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:12]


def sql_workload(
    text: str,
    schema: Schema,
    name: Optional[str] = None,
    statistics: Optional[StatisticsCatalog] = None,
) -> GeneratedQuery:
    """Parse SQL text and lower it onto ``schema`` in one call."""
    parsed = parse_sql(text)
    if name is None:
        name = f"sql_{sql_text_digest(text)}"
    return lower_parsed(parsed, schema, name, statistics=statistics)
