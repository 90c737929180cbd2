"""Persistent optimizer state: result sets, candidate sets, counters.

IAMA is incremental because it "maintains two plan sets across invocations:
the result plan set and the candidate plan set" (Section 4).  Both contain
partial plans (joining a subset of the query's tables) as well as completed
plans, and both are indexed by table set, cost vector and resolution level.

:class:`OptimizerState` owns:

* one :class:`~repro.core.index.PlanIndex` per table subset for result plans
  (``Res^q``) and one for candidate plans (``Cand^q``), created lazily,
* :class:`OptimizerCounters` with the bookkeeping that the formal-analysis
  tests and the ablation benchmarks inspect (plans generated, candidate
  retrievals, prune outcomes, ...).

The state belongs to exactly one query; the control loop creates a fresh state
when optimization of a new query starts.  Which sub-plan pairs are fresh is
not stored here: the optimizer decides ``IsFresh`` from its invocation
history and these result sets (:mod:`repro.core.optimizer`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.core.index import PlanIndex
from repro.plans.plan import Plan
from repro.plans.query import Query

TableSet = FrozenSet[str]


@dataclass
class OptimizerCounters:
    """Work counters accumulated over all invocations for one query."""

    #: Optimizer invocations performed so far.
    invocations: int = 0
    #: Scan plans generated while seeding the plan sets.
    scan_plans_generated: int = 0
    #: Join plans generated by the Fresh/combine step.
    join_plans_generated: int = 0
    #: Candidate plans retrieved (and removed) for re-pruning.
    candidate_retrievals: int = 0
    #: Prune calls that inserted a plan into the result set.
    plans_inserted: int = 0
    #: Prune calls that deferred a plan to a higher resolution.
    plans_deferred: int = 0
    #: Prune calls that parked a plan as out-of-bounds candidate.
    plans_out_of_bounds: int = 0
    #: Prune calls that discarded a plan for good.
    plans_discarded: int = 0
    #: Sub-plan pairs enumerated by the Fresh step (before IsFresh filtering).
    pairs_enumerated: int = 0
    #: Arena occupancy gauges, refreshed at the end of every invocation:
    #: plans currently interned and live in the per-query arena, ...
    arena_plans_live: int = 0
    #: ... plans tombstoned (discarded for good but keeping their id), and ...
    arena_plans_tombstoned: int = 0
    #: ... the peak estimated size of the arena columns in bytes.
    arena_peak_bytes: int = 0

    @property
    def plans_generated(self) -> int:
        """Total number of plans ever constructed for this query."""
        return self.scan_plans_generated + self.join_plans_generated

    @property
    def prune_calls(self) -> int:
        return (
            self.plans_inserted
            + self.plans_deferred
            + self.plans_out_of_bounds
            + self.plans_discarded
        )


class OptimizerState:
    """Result and candidate plan sets for one query, kept across invocations."""

    def __init__(self, query: Query, cell_base: float = 2.0):
        self._query = query
        self._cell_base = cell_base
        self._results: Dict[TableSet, PlanIndex] = {}
        self._candidates: Dict[TableSet, PlanIndex] = {}
        self.counters = OptimizerCounters()
        #: Whether the scan plans have been generated and pruned already.
        self.seeded = False

    # ------------------------------------------------------------------
    @property
    def query(self) -> Query:
        return self._query

    def result_set(self, tables: Iterable[str]) -> PlanIndex:
        """The result plan set ``Res^q`` for the given table set."""
        return self._get_or_create(self._results, frozenset(tables))

    def candidate_set(self, tables: Iterable[str]) -> PlanIndex:
        """The candidate plan set ``Cand^q`` for the given table set."""
        return self._get_or_create(self._candidates, frozenset(tables))

    def _get_or_create(
        self, collection: Dict[TableSet, PlanIndex], key: TableSet
    ) -> PlanIndex:
        if not key:
            raise ValueError("table set must be non-empty")
        if not key <= self._query.tables:
            raise ValueError(
                f"table set {sorted(key)} is not a subset of the query tables "
                f"{sorted(self._query.tables)}"
            )
        index = collection.get(key)
        if index is None:
            index = PlanIndex(cell_base=self._cell_base)
            collection[key] = index
        return index

    # ------------------------------------------------------------------
    # Aggregate inspection helpers (used by tests, reports and benchmarks)
    # ------------------------------------------------------------------
    def populated_result_sets(self) -> Dict[TableSet, PlanIndex]:
        """All non-empty result plan sets keyed by table set."""
        return {key: idx for key, idx in self._results.items() if len(idx) > 0}

    def populated_candidate_sets(self) -> Dict[TableSet, PlanIndex]:
        """All non-empty candidate plan sets keyed by table set."""
        return {key: idx for key, idx in self._candidates.items() if len(idx) > 0}

    def total_result_plans(self) -> int:
        """Number of result plans over all table sets."""
        return sum(len(index) for index in self._results.values())

    def total_candidate_plans(self) -> int:
        """Number of candidate plans over all table sets."""
        return sum(len(index) for index in self._candidates.values())

    def total_stored_plans(self) -> int:
        """Result plus candidate plans; the paper's space-consumption measure."""
        return self.total_result_plans() + self.total_candidate_plans()

    def final_result_set(self) -> PlanIndex:
        """The result plan set for the complete query (all tables)."""
        return self.result_set(self._query.tables)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"OptimizerState(query={self._query.name!r}, "
            f"results={self.total_result_plans()}, "
            f"candidates={self.total_candidate_plans()})"
        )
