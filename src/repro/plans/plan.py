"""Query plans as thin handles over an arena slot.

A plan either scans a single base table or joins the results of two sub-plans
(Section 3: ``p = p1 ⋈ p2``).  Since the arena refactor, the plan data -- the
table set, the cost row, the physical operator, the optional *interesting
order* tag (Section 4.3) and the child plan ids -- lives in the parallel
columns of a :class:`~repro.plans.arena.PlanArena` ("plans are represented by
pointers to their sub-plans", Section 5.2).  A :class:`Plan` object is a
*handle*: an ``(arena, plan_id)`` pair whose properties read straight from the
arena columns.

Handles are canonical: a plan exists only in its per-query arena, and
``arena.plan(plan_id)`` is the only way to get its handle.  The arena keeps one
handle per materialized id, so equality remains identity-based (two
structurally identical plans allocated independently are distinct objects
with distinct ids) -- which is what the incremental bookkeeping requires --
and each handle caches its own cost vector.  ``plan_id`` is a dense, 1-based
integer unique *per arena*: every plan factory owns a private arena, so id
assignment is a deterministic function of the query's own optimization
history.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Optional

from repro.costs.vector import CostVector
from repro.plans.operators import JoinOperator, ScanOperator


class Plan:
    """Base class for query plans: a handle over one arena slot."""

    __slots__ = ("_arena", "plan_id", "_cost")

    @classmethod
    def _from_arena(cls, arena, plan_id: int) -> "Plan":
        """Materialize a handle for an already-allocated arena slot (called
        by :meth:`~repro.plans.arena.PlanArena.plan` only)."""
        handle = object.__new__(cls)
        handle._arena = arena
        handle.plan_id = plan_id
        handle._cost = None
        return handle

    # ------------------------------------------------------------------
    @property
    def arena(self):
        """The :class:`~repro.plans.arena.PlanArena` owning this plan."""
        return self._arena

    @property
    def tables(self) -> FrozenSet[str]:
        """The (interned) set of tables joined by this plan."""
        return self._arena.tables_of(self.plan_id)

    @property
    def cost(self) -> CostVector:
        """The plan's multi-objective cost vector (the arena row, read once)."""
        cost = self._cost
        if cost is None:
            cost = self._cost = CostVector(self._arena.cost_row(self.plan_id))
        return cost

    @property
    def interesting_order(self) -> Optional[str]:
        """Name of the column/order the plan's output is sorted on, or None."""
        return self._arena.order_of(self.plan_id)

    @property
    def table_count(self) -> int:
        """Number of tables joined by this plan."""
        return len(self.tables)

    def is_scan(self) -> bool:
        return isinstance(self, ScanPlan)

    def is_join(self) -> bool:
        return isinstance(self, JoinPlan)

    def leaves(self) -> List["ScanPlan"]:
        """The scan plans at the leaves of this plan tree, left to right."""
        raise NotImplementedError

    def depth(self) -> int:
        """Height of the plan tree (1 for scans)."""
        raise NotImplementedError

    def walk(self) -> Iterator["Plan"]:
        """Iterate over the plan tree in pre-order."""
        raise NotImplementedError

    def render(self) -> str:
        """A compact single-line rendering of the plan tree."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(id={self.plan_id}, tables={sorted(self.tables)})"


class ScanPlan(Plan):
    """A plan that scans a single base table."""

    __slots__ = ()

    @property
    def table(self) -> str:
        tables = self._arena.tables_of(self.plan_id)
        return next(iter(tables))

    @property
    def operator(self) -> ScanOperator:
        return self._arena.operator_of(self.plan_id)

    def leaves(self) -> List["ScanPlan"]:
        return [self]

    def depth(self) -> int:
        return 1

    def walk(self) -> Iterator[Plan]:
        yield self

    def render(self) -> str:
        return f"{self.operator.label}[{self.table}]"


class JoinPlan(Plan):
    """A plan joining the results of two sub-plans."""

    __slots__ = ()

    @property
    def left(self) -> Plan:
        return self._arena.plan(self._arena.left_of(self.plan_id))

    @property
    def right(self) -> Plan:
        return self._arena.plan(self._arena.right_of(self.plan_id))

    @property
    def operator(self) -> JoinOperator:
        return self._arena.operator_of(self.plan_id)

    def leaves(self) -> List[ScanPlan]:
        return self.left.leaves() + self.right.leaves()

    def depth(self) -> int:
        return 1 + max(self.left.depth(), self.right.depth())

    def walk(self) -> Iterator[Plan]:
        yield self
        yield from self.left.walk()
        yield from self.right.walk()

    def render(self) -> str:
        return f"({self.left.render()} {self.operator.label} {self.right.render()})"

