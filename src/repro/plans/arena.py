"""Arena-backed plan store: plans as dense integer ids over parallel arrays.

The paper stores plans compactly: "plans are represented by pointers to their
sub-plans" (Section 5.2).  :class:`PlanArena` takes that literally for the
whole plan layer: every plan a query ever materializes is *interned* into one
per-query arena as a dense integer id (1-based; 0 is the "no child" sentinel)
over parallel columns

* ``left``/``right`` -- child plan ids (0 for scans),
* ``operator`` -- id into the arena's operator interning table,
* ``tables`` -- id into the arena's table-subset interning table,
* ``order`` -- id into the interesting-order interning table (0 = no order),
* one row of the arena's contiguous :class:`~repro.costs.matrix.CostMatrix`
  per plan (slot ``plan_id - 1``), which is the storage the batched costing
  and pruning kernels operate on.

The arena is the single source of truth and the only way to reach a plan:
:meth:`PlanArena.plan` returns its :class:`~repro.plans.plan.Plan` handle
(arena reference + plan id), whose ``left``/``right``/``tables`` properties
read straight from the arena columns.  Handles are materialized lazily and
kept in one dict holding only the ids materialized so far, so identity
semantics survive: ``arena.plan(pid)`` always returns the same object, and
each handle caches its own cost vector.  Allocation and tombstoning never
touch handles.

Ids are assigned per arena in allocation order, which makes id assignment a
deterministic function of the query's own optimization history -- independent
of process-global state, interpreter hash seeds or test execution order.

Blocks of plans are read column-wise in one call: :meth:`PlanArena.cost_columns`
and :meth:`PlanArena.order_ids` slice the arena's columns for a contiguous
id range -- every block :meth:`PlanArena.extend_joins` allocates is one --
and gather once otherwise.

Plans that the optimizer discards for good are *tombstoned*, a block at a
time in one pass (:meth:`PlanArena.tombstone_ids`): their row stays
addressable (ids are never recycled) but is counted separately, so the
occupancy statistics (:meth:`PlanArena.stats`) distinguish live plans from
dead weight and estimate the arena's memory footprint.  A handle stays valid
after its plan is tombstoned, since the row it reads is never recycled.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro import kernel
from repro.costs.matrix import CostMatrix
from repro.costs.vector import CostVector
from repro.plans.plan import JoinPlan, Plan, ScanPlan

#: Child id of scan plans ("no sub-plan").
NO_CHILD = 0

#: Node kinds stored per plan (drives which handle class is materialized).
KIND_SCAN = 1
KIND_JOIN = 2


@dataclass(frozen=True)
class ArenaStats:
    """Occupancy snapshot of one plan arena."""

    #: Plans ever allocated (ids are dense, so this is also the highest id).
    plans_total: int
    #: Plans not tombstoned.
    plans_live: int
    #: Plans discarded for good by the optimizer.
    plans_tombstoned: int
    #: Distinct table subsets interned.
    table_sets_interned: int
    #: Distinct physical operators interned.
    operators_interned: int
    #: Distinct interesting orders interned (excluding "no order").
    orders_interned: int
    #: Estimated bytes held by the arena columns (cost rows + id columns).
    approx_bytes: int


class PlanArena:
    """Per-query plan store; see the module docstring for the layout.

    Parameters
    ----------
    dimensions:
        Number of cost metrics; fixes the width of every plan's cost row.
    """

    __slots__ = (
        "_dims",
        "costs",
        "_kind",
        "_left",
        "_right",
        "_operator",
        "_tables",
        "_order",
        "_tableset_ids",
        "_tablesets",
        "_operator_ids",
        "_operators",
        "_order_ids",
        "_orders",
        "_plans",
        "_tombstoned",
    )

    def __init__(self, dimensions: int):
        if dimensions < 1:
            raise ValueError("a plan arena needs at least one cost metric")
        self._dims = dimensions
        #: One cost row per plan; slot ``plan_id - 1``.
        self.costs = CostMatrix(dimensions)
        self._kind = array("b")
        self._left = array("q")
        self._right = array("q")
        self._operator = array("q")
        self._tables = array("q")
        self._order = array("q")
        # Interning tables.  Table subsets and orders are immutable values;
        # operators are frozen dataclasses -- all hashable.
        self._tableset_ids: Dict[FrozenSet[str], int] = {}
        self._tablesets: List[FrozenSet[str]] = []
        self._operator_ids: Dict[object, int] = {}
        self._operators: List[object] = []
        self._order_ids: Dict[Optional[str], int] = {None: 0}
        self._orders: List[Optional[str]] = [None]
        # Canonical handles of the ids materialized so far.
        self._plans: Dict[int, Plan] = {}
        self._tombstoned = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dimensions(self) -> int:
        return self._dims

    def __len__(self) -> int:
        """Number of plans ever allocated (tombstoned ones included)."""
        return len(self._kind)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"PlanArena(dims={self._dims}, plans={len(self._kind)}, "
            f"tombstoned={self._tombstoned})"
        )

    def stats(self) -> ArenaStats:
        """Occupancy statistics (live/tombstoned plans, bytes estimate)."""
        total = len(self._kind)
        id_columns = (self._kind, self._left, self._right, self._operator,
                      self._tables, self._order)
        approx_bytes = self._dims * 8 * total + total  # cost rows + liveness
        for column in id_columns:
            approx_bytes += column.itemsize * len(column)
        return ArenaStats(
            plans_total=total,
            plans_live=total - self._tombstoned,
            plans_tombstoned=self._tombstoned,
            table_sets_interned=len(self._tablesets),
            operators_interned=len(self._operators),
            orders_interned=len(self._orders) - 1,
            approx_bytes=approx_bytes,
        )

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def intern_tables(self, tables: FrozenSet[str]) -> int:
        """Id of the table subset, interning it on first sight."""
        tables_id = self._tableset_ids.get(tables)
        if tables_id is None:
            tables_id = len(self._tablesets)
            self._tableset_ids[tables] = tables_id
            self._tablesets.append(tables)
        return tables_id

    def intern_operator(self, operator: object) -> int:
        """Id of the physical operator, interning it on first sight."""
        operator_id = self._operator_ids.get(operator)
        if operator_id is None:
            operator_id = len(self._operators)
            self._operator_ids[operator] = operator_id
            self._operators.append(operator)
        return operator_id

    def intern_order(self, order: Optional[str]) -> int:
        """Id of the interesting order (0 for "no order")."""
        order_id = self._order_ids.get(order)
        if order_id is None:
            order_id = len(self._orders)
            self._order_ids[order] = order_id
            self._orders.append(order)
        return order_id

    def tables_for_id(self, tables_id: int) -> FrozenSet[str]:
        """The interned table subset with the given id."""
        return self._tablesets[tables_id]

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def _allocate(
        self,
        kind: int,
        left: int,
        right: int,
        operator_id: int,
        tables_id: int,
        order_id: int,
        cost_row: Sequence[float],
    ) -> int:
        self.costs.append(cost_row)
        self._kind.append(kind)
        self._left.append(left)
        self._right.append(right)
        self._operator.append(operator_id)
        self._tables.append(tables_id)
        self._order.append(order_id)
        return len(self._kind)

    def allocate_scan(
        self,
        table: str,
        operator: object,
        cost: Sequence[float],
        interesting_order: Optional[str] = None,
    ) -> int:
        """Allocate a scan of a single base table."""
        return self._allocate(
            KIND_SCAN,
            NO_CHILD,
            NO_CHILD,
            self.intern_operator(operator),
            self.intern_tables(frozenset({table})),
            self.intern_order(interesting_order),
            self._check_row(cost),
        )

    def allocate_join(
        self,
        left_id: int,
        right_id: int,
        operator: object,
        cost: Sequence[float],
        interesting_order: Optional[str] = None,
    ) -> int:
        """Allocate a join of two previously allocated plans."""
        left_tables = self.tables_of(left_id)
        right_tables = self.tables_of(right_id)
        overlap = left_tables & right_tables
        if overlap:
            raise ValueError(
                f"join operands overlap on tables {sorted(overlap)}"
            )
        return self._allocate(
            KIND_JOIN,
            left_id,
            right_id,
            self.intern_operator(operator),
            self.intern_tables(left_tables | right_tables),
            self.intern_order(interesting_order),
            self._check_row(cost),
        )

    def extend_joins(
        self,
        left_ids: Sequence[int],
        right_ids: Sequence[int],
        operator_ids: Sequence[int],
        tables_ids: Sequence[int],
        order_ids: Sequence[int],
        cost_columns: Sequence[Sequence[float]],
    ) -> range:
        """Bulk-allocate a block of already-costed joins; returns their ids,
        one contiguous range.

        This is the allocation half of the batched generate → cost path: the
        caller (``PlanFactory.combine_block``) has validated the operands and
        produced one cost column per metric for the whole block, so the arena
        only extends its columns -- no per-plan Python objects are created.
        """
        count = len(left_ids)
        first_id = len(self._kind) + 1
        if count:
            self.costs.extend_columns(cost_columns, count)
            self._kind.extend([KIND_JOIN] * count)
            self._left.extend(left_ids)
            self._right.extend(right_ids)
            self._operator.extend(operator_ids)
            self._tables.extend(tables_ids)
            self._order.extend(order_ids)
        return range(first_id, first_id + count)

    def _check_row(self, cost: Sequence[float]) -> Tuple[float, ...]:
        if isinstance(cost, CostVector):
            return cost.values
        return tuple(cost)

    # ------------------------------------------------------------------
    # Per-plan accessors (all O(1) array reads)
    # ------------------------------------------------------------------
    def kind_of(self, plan_id: int) -> int:
        return self._kind[plan_id - 1]

    def left_of(self, plan_id: int) -> int:
        return self._left[plan_id - 1]

    def right_of(self, plan_id: int) -> int:
        return self._right[plan_id - 1]

    def operator_of(self, plan_id: int) -> object:
        return self._operators[self._operator[plan_id - 1]]

    def tables_id_of(self, plan_id: int) -> int:
        return self._tables[plan_id - 1]

    def tables_of(self, plan_id: int) -> FrozenSet[str]:
        return self._tablesets[self._tables[plan_id - 1]]

    def order_id_of(self, plan_id: int) -> int:
        return self._order[plan_id - 1]

    def order_ids(self, plan_ids: Sequence[int]) -> Sequence[int]:
        """Interned order ids of a block of plans, in order: a slice of the
        order column for a contiguous id range (a fresh block)."""
        order = self._order
        if _is_id_range(plan_ids):
            return order[plan_ids.start - 1 : plan_ids.stop - 1]
        return [order[plan_id - 1] for plan_id in plan_ids]

    def order_of(self, plan_id: int) -> Optional[str]:
        return self._orders[self._order[plan_id - 1]]

    def cost_columns(self, plan_ids: Sequence[int]) -> List[array]:
        """The cost rows of a block of plans, column-wise, in order: slices
        of the arena's columns for a contiguous id range (a fresh block),
        else one kernel gather."""
        columns = self.costs.columns
        if _is_id_range(plan_ids):
            start, stop = plan_ids.start - 1, plan_ids.stop - 1
            return [column[start:stop] for column in columns]
        return kernel.ops.take(columns, [plan_id - 1 for plan_id in plan_ids])

    def cost_row(self, plan_id: int) -> Tuple[float, ...]:
        """The raw cost row of a plan (no CostVector allocation)."""
        slot = plan_id - 1
        return tuple(column[slot] for column in self.costs.columns)

    def first_cost(self, plan_id: int) -> float:
        """First cost component (the plan-index bucketing key)."""
        return self.costs.columns[0][plan_id - 1]

    def is_tombstoned(self, plan_id: int) -> bool:
        return not self.costs.is_alive(plan_id - 1)

    def tombstone(self, plan_id: int) -> None:
        """Mark a discarded plan as dead weight (its row stays addressable)."""
        self.tombstone_ids((plan_id,))

    def tombstone_ids(self, plan_ids: Iterable[int]) -> None:
        """Tombstone several plans in one pass over ``plan_ids``.

        Ends in the state of a :meth:`tombstone` loop: ids that are already
        dead (or repeated) are skipped.
        """
        slots = self.costs.kill_live_slots(plan_id - 1 for plan_id in plan_ids)
        self._tombstoned += len(slots)

    # ------------------------------------------------------------------
    # Handles
    # ------------------------------------------------------------------
    def plan(self, plan_id: int) -> Plan:
        """The canonical :class:`~repro.plans.plan.Plan` handle for an id.

        Handles are created lazily and cached, so two calls for the same id
        return the *same* object -- plan equality stays identity-based.
        Raises :class:`KeyError` for an id outside ``1..len(self)``.
        """
        handle = self._plans.get(plan_id)
        if handle is None:
            if not 0 < plan_id <= len(self._kind):
                raise KeyError(
                    f"no plan with id {plan_id}: this arena holds ids "
                    f"1..{len(self._kind)}"
                )
            cls = ScanPlan if self._kind[plan_id - 1] == KIND_SCAN else JoinPlan
            handle = self._plans[plan_id] = cls._from_arena(self, plan_id)
        return handle

    def plans(self, plan_ids: Iterable[int]) -> List[Plan]:
        """Canonical handles for a sequence of ids, in order."""
        return [self.plan(plan_id) for plan_id in plan_ids]


def _is_id_range(plan_ids: Sequence[int]) -> bool:
    """Whether a block of ids is one contiguous ascending range."""
    return isinstance(plan_ids, range) and plan_ids.step == 1
