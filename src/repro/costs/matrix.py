"""Contiguous cost storage for batched dominance checks.

:class:`CostMatrix` is the structure-of-arrays companion of
:class:`~repro.costs.vector.CostVector`: it stores one ``array('d')`` column
per cost metric plus an ``array('b')`` liveness bitmap, and exposes whole-block
dominance operations that dispatch to the active :mod:`repro.kernel` backend
(pure-Python loops or numpy, selected at import -- see the kernel package
docstring).  ``CostVector`` remains the public value type; the matrix is the
storage the hot paths (plan index buckets, DP plan lists, Pareto frontiers)
iterate with single kernel calls instead of per-vector Python loops.

Rows are addressed by *slot*.  Removing a row (:meth:`kill`) tombstones it in
place so that the slots of the surviving rows -- and therefore the bookkeeping
of whoever stores payloads parallel to the matrix -- stay valid.  Owners
compact when the tombstone fraction grows (:meth:`compact` returns the kept
slots so parallel payload lists can be compacted in lockstep).

All comparisons are exact IEEE-754 comparisons, tolerant of ``+inf``
components, and backend-independent: the python and numpy kernels produce
bit-identical masks.
"""

from __future__ import annotations

from array import array
from typing import Generic, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro import kernel
from repro.costs.vector import CostVector

T = TypeVar("T")


class CostMatrix:
    """A block of cost vectors stored column-wise for batch operations.

    Parameters
    ----------
    dimensions:
        Number of cost metrics ``l``; every appended row must have exactly
        this many components.
    """

    __slots__ = ("_dims", "_columns", "_alive", "_live", "_dead")

    def __init__(self, dimensions: int):
        if dimensions < 1:
            raise ValueError("a cost matrix needs at least one metric column")
        self._dims = dimensions
        self._columns: List[array] = [array("d") for _ in range(dimensions)]
        self._alive = array("b")
        self._live = 0
        self._dead = 0

    @classmethod
    def from_vectors(
        cls, vectors: Iterable[Sequence[float]], dimensions: Optional[int] = None
    ) -> "CostMatrix":
        """Build a matrix from an iterable of vectors (all live).

        ``dimensions`` may be omitted when the iterable is non-empty; it is
        then inferred from the first vector.
        """
        rows = [tuple(v) for v in vectors]
        if dimensions is None:
            if not rows:
                raise ValueError(
                    "cannot infer dimensions from an empty vector collection"
                )
            dimensions = len(rows[0])
        matrix = cls(dimensions)
        for row in rows:
            matrix.append(row)
        return matrix

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dimensions(self) -> int:
        """The number of cost metrics ``l``."""
        return self._dims

    @property
    def columns(self) -> List[array]:
        """The raw metric columns (``array('d')``), one per dimension.

        Exposed for owners that address rows by slot directly (the plan
        arena); treat as read-only.
        """
        return self._columns

    @property
    def live_count(self) -> int:
        """Number of live (non-tombstoned) rows."""
        return self._live

    @property
    def dead_count(self) -> int:
        """Number of tombstoned rows awaiting compaction."""
        return self._dead

    @property
    def slot_count(self) -> int:
        """Total number of slots (live + tombstoned)."""
        return len(self._alive)

    def __len__(self) -> int:
        return self._live

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"CostMatrix(dims={self._dims}, live={self._live}, "
            f"dead={self._dead}, backend={kernel.backend_name()!r})"
        )

    def is_alive(self, slot: int) -> bool:
        """Whether the slot holds a live row."""
        return bool(self._alive[slot])

    def row(self, slot: int) -> CostVector:
        """The cost vector stored at ``slot`` (live or tombstoned)."""
        return CostVector(col[slot] for col in self._columns)

    def rows(self) -> List[CostVector]:
        """Cost vectors of the live rows, in slot order."""
        return [self.row(slot) for slot in self.alive_slots()]

    def alive_slots(self) -> List[int]:
        """Slots of the live rows, in insertion order."""
        alive = self._alive
        return [i for i in range(len(alive)) if alive[i]]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, values: Sequence[float]) -> int:
        """Append a live row; returns its slot.

        Accepts a :class:`CostVector` or any float sequence of matching
        dimensionality.
        """
        row = tuple(values)
        if len(row) != self._dims:
            raise ValueError(
                f"cost row has {len(row)} components but the matrix stores "
                f"{self._dims} metrics"
            )
        for col, value in zip(self._columns, row):
            col.append(value)
        self._alive.append(1)
        self._live += 1
        return len(self._alive) - 1

    def extend_columns(self, columns: Sequence[Sequence[float]], count: int) -> int:
        """Bulk-append ``count`` live rows given column-wise; returns first slot.

        The batched costing path produces whole metric columns at once; this
        appends them without the per-row tuple round-trip of :meth:`append`.
        Every column must hold exactly ``count`` values.
        """
        if len(columns) != self._dims:
            raise ValueError(
                f"got {len(columns)} cost columns but the matrix stores "
                f"{self._dims} metrics"
            )
        first = len(self._alive)
        for dest, src in zip(self._columns, columns):
            if len(src) != count:
                raise ValueError(
                    f"cost column holds {len(src)} values, expected {count}"
                )
            dest.extend(src)
        self._alive.extend([1] * count)
        self._live += count
        return first

    def kill(self, slot: int) -> None:
        """Tombstone the row at ``slot`` (it stops matching every query)."""
        self.kill_slots((slot,))

    def kill_slots(self, slots: Sequence[int]) -> None:
        """Tombstone several rows in one pass."""
        alive = self._alive
        for slot in slots:
            if not alive[slot]:
                raise KeyError(f"slot {slot} is already dead")
            alive[slot] = 0
        self._live -= len(slots)
        self._dead += len(slots)

    def kill_live_slots(self, slots: Iterable[int]) -> List[int]:
        """Tombstone the live rows among ``slots`` in one pass; returns the
        slots killed, in order.  Dead and repeated slots are skipped."""
        alive = self._alive
        killed: List[int] = []
        for slot in slots:
            if alive[slot]:
                alive[slot] = 0
                killed.append(slot)
        self._live -= len(killed)
        self._dead += len(killed)
        return killed

    def compact(self) -> List[int]:
        """Drop tombstoned rows; returns the old slots that were kept.

        Surviving rows keep their relative order and occupy slots
        ``0..live_count-1`` afterwards.  Owners holding payload lists parallel
        to the matrix must re-index them with the returned slot list.
        """
        kept = self.alive_slots()
        self._columns = [array("d", (col[i] for i in kept)) for col in self._columns]
        self._alive = array("b", [1] * len(kept))
        self._dead = 0
        return kept

    def clear(self) -> None:
        """Remove every row."""
        self._columns = [array("d") for _ in range(self._dims)]
        self._alive = array("b")
        self._live = 0
        self._dead = 0

    # ------------------------------------------------------------------
    # Batched dominance operations (kernel-backed)
    # ------------------------------------------------------------------
    def _check_vector(self, vector: Sequence[float]) -> Tuple[float, ...]:
        values = tuple(vector)
        if len(values) != self._dims:
            raise ValueError(
                f"cannot compare a {len(values)}-dimensional vector against a "
                f"matrix with {self._dims} metrics"
            )
        return values

    def dominated_slots(self, bounds: Sequence[float]) -> List[int]:
        """Slots of live rows whose cost dominates ``bounds`` (row ``<= bounds``).

        This is the bulk version of the per-plan ``dominates(cost, bounds)``
        filter of a range query: it returns exactly the rows that respect the
        given cost bounds.
        """
        return kernel.ops.leq_slots(
            self._columns, self._alive, self._check_vector(bounds)
        )

    def dominated_mask(self, bounds: Sequence[float]) -> List[bool]:
        """Per-live-row mask (in slot order) of ``row <= bounds``."""
        hits = set(self.dominated_slots(bounds))
        return [slot in hits for slot in self.alive_slots()]

    def dominated_by_slots(self, vector: Sequence[float]) -> List[int]:
        """Slots of live rows dominated by ``vector`` (row ``>= vector``).

        Used for frontier eviction: the incumbents a newly inserted vector
        renders redundant.
        """
        return kernel.ops.geq_slots(
            self._columns, self._alive, self._check_vector(vector)
        )

    def pareto_mask(self) -> List[bool]:
        """Per-live-row mask (in slot order) of the strict-dominance frontier.

        A row is marked ``True`` when no other live row strictly dominates it
        *and* it is the first occurrence of its exact cost vector (equal rows
        keep exactly one representative, the earliest slot).

        Dispatches to the kernel backend (lexicographic sort + frontier
        sweep, ``O(n log n + n * F)``; the numpy backend additionally tiles
        the candidate-vs-frontier broadcast so peak memory stays bounded on
        blocks far beyond 4096 rows).
        """
        return kernel.ops.pareto_mask(self._columns, self._alive)

    def scaled_rows(self, factor: float) -> List[CostVector]:
        """Cost vectors of the live rows multiplied by ``factor``, slot order.

        The bulk version of ``CostVector.scaled``.
        """
        if factor < 0.0:
            raise ValueError("scaling factor must be non-negative")
        scaled = kernel.ops.scale_columns(self._columns, factor)
        return [
            CostVector(col[slot] for col in scaled) for slot in self.alive_slots()
        ]

    def scale(self, factor: float) -> "CostMatrix":
        """A new, compacted matrix holding the live rows times ``factor``."""
        if factor < 0.0:
            raise ValueError("scaling factor must be non-negative")
        scaled = kernel.ops.scale_columns(self._columns, factor)
        matrix = CostMatrix(self._dims)
        for slot in self.alive_slots():
            matrix.append(tuple(col[slot] for col in scaled))
        return matrix


class CostBlock(Generic[T]):
    """A cost matrix plus a slot-parallel payload list.

    Owns the tombstone bookkeeping that every matrix-backed container needs:
    killing a slot tombstones the matrix row and the payload together, and
    :meth:`compact_if_needed` compacts both in lockstep once tombstones
    outnumber live entries.  The plan index buckets, the baseline DP plan
    lists and the generic Pareto frontier all build on this class so the
    payload/matrix synchronization invariant lives in exactly one place.
    """

    __slots__ = ("matrix", "items")

    def __init__(self, dimensions: int):
        self.matrix = CostMatrix(dimensions)
        #: Slot-parallel payloads; tombstoned slots hold ``None``.
        self.items: List[Optional[T]] = []

    def __len__(self) -> int:
        return self.matrix.live_count

    def append(self, cost: Sequence[float], item: T) -> int:
        """Append a live (cost, payload) pair; returns its slot."""
        slot = self.matrix.append(cost)
        self.items.append(item)
        return slot

    def extend(self, columns: Sequence[Sequence[float]], items: Sequence[T]) -> int:
        """Append live rows given column-wise, with their payloads; returns
        the first new slot."""
        slot = self.matrix.extend_columns(columns, len(items))
        self.items.extend(items)
        return slot

    def kill(self, slot: int) -> None:
        """Tombstone a slot; call :meth:`compact_if_needed` after a batch."""
        self.kill_slots((slot,))

    def kill_slots(self, slots: Sequence[int]) -> None:
        """Tombstone several slots in one pass."""
        self.matrix.kill_slots(slots)
        items = self.items
        for slot in slots:
            items[slot] = None

    def compact_if_needed(self) -> Optional[List[int]]:
        """Compact once tombstones outnumber live entries.

        Returns the kept (old) slots when a compaction happened -- callers
        holding external slot references use them to re-index -- or ``None``
        when nothing changed.
        """
        if self.matrix.dead_count <= self.matrix.live_count:
            return None
        kept = self.matrix.compact()
        self.items = [self.items[slot] for slot in kept]
        return kept

    def live_items(self) -> List[T]:
        """Payloads of the live slots, in insertion order."""
        return [item for item in self.items if item is not None]
