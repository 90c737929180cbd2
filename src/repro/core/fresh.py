"""Freshness bookkeeping: ``IsFresh`` and the Δ-set pair enumeration.

Function ``Fresh`` (Algorithm 3) combines result plans of two table subsets but
must only produce *fresh* plans -- combinations of sub-plans that were never
generated in any prior optimizer invocation.  Two mechanisms cooperate:

* the **Δ-sets**: when the invocation series only tightens bounds while the
  resolution is refined, all previously existing result plans respecting the
  current bounds have already been combined with each other, so only pairs
  involving at least one plan *inserted during the current invocation* need to
  be enumerated:  ``ΔP1 × (P2 \\ ΔP2)  ∪  (P1 \\ ΔP1) × ΔP2  ∪  ΔP1 × ΔP2``.
  Otherwise ``ΔS = S`` and all pairs are enumerated.
* the **IsFresh predicate**, backed by a hash table of already-combined
  sub-plan signatures, which guarantees that no pair/operator combination is
  ever materialized twice even when the Δ-sets degenerate to full sets.

The registry counts its hits and misses; Lemma 6 ("each sub-plan pair is
generated at most once") is checked against those counters by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Set, Tuple

from repro.plans.operators import JoinOperator


@dataclass
class FreshnessCounters:
    """Statistics of the freshness registry."""

    #: Pair/operator combinations seen for the first time.
    fresh_combinations: int = 0
    #: Pair/operator combinations rejected because they were seen before.
    repeated_combinations: int = 0

    @property
    def total_checks(self) -> int:
        return self.fresh_combinations + self.repeated_combinations


class FreshnessRegistry:
    """Hash-table implementation of the ``IsFresh`` predicate.

    Signatures are *integer triples* ``(min_id, max_id, operator_key)``: plan
    ids are the arena ids of the operands (canonicalized so ``(p1, p2)`` and
    ``(p2, p1)`` coincide) and ``operator_key`` is a small integer the
    registry interns per distinct ``(algorithm, parallelism)`` operator
    variant.
    """

    def __init__(self) -> None:
        self._seen: Set[Tuple[int, int, int]] = set()
        self._operator_keys: dict = {}
        self.counters = FreshnessCounters()

    def __len__(self) -> int:
        return len(self._seen)

    def operator_key(self, operator: JoinOperator) -> int:
        """The interned integer key of a join operator variant."""
        variant = (operator.algorithm, operator.parallelism)
        key = self._operator_keys.get(variant)
        if key is None:
            key = len(self._operator_keys)
            self._operator_keys[variant] = key
        return key

    def register_ids(self, left_id: int, right_id: int, operator_key: int) -> bool:
        """Register one combination; return whether it was fresh.

        Check and mark in one step, so a combination can never be reported
        fresh twice.
        """
        signature = self._signature(left_id, right_id, operator_key)
        if signature in self._seen:
            self.counters.repeated_combinations += 1
            return False
        self._seen.add(signature)
        self.counters.fresh_combinations += 1
        return True

    @staticmethod
    def _signature(left_id: int, right_id: int, operator_key: int) -> Tuple[int, int, int]:
        if left_id <= right_id:
            return (left_id, right_id, operator_key)
        return (right_id, left_id, operator_key)

    def clear(self) -> None:
        """Forget all registered combinations (used only by tests)."""
        self._seen.clear()
        self._operator_keys.clear()
        self.counters = FreshnessCounters()


def fresh_id_pairs(
    left_ids: Sequence[int],
    right_ids: Sequence[int],
    left_delta: Optional[Sequence[int]] = None,
    right_delta: Optional[Sequence[int]] = None,
) -> Iterator[Tuple[int, int]]:
    """Enumerate the sub-plan id pairs that may yield fresh combinations.

    ``left_ids`` / ``right_ids`` are the bound- and resolution-filtered
    result plans ``P1`` and ``P2``; ``left_delta`` / ``right_delta`` are the
    subsets ``ΔP1`` / ``ΔP2`` of plans inserted during the current invocation.
    Passing ``None`` for a delta means "Δ-set unknown, use the full set"
    (the conservative choice described in Section 4.2).  Pairs come in the
    order ΔP1 × (P2 \\ ΔP2), (P1 \\ ΔP1) × ΔP2, ΔP1 × ΔP2.

    The enumeration short-circuits when either operand set is empty, matching
    the paper's remark that each cross product first checks operand emptiness.
    """
    if not left_ids or not right_ids:
        return
    if left_delta is None or right_delta is None:
        for left_id in left_ids:
            for right_id in right_ids:
                yield left_id, right_id
        return
    left_delta_ids = set(left_delta)
    right_delta_ids = set(right_delta)
    left_old = [i for i in left_ids if i not in left_delta_ids]
    right_old = [i for i in right_ids if i not in right_delta_ids]
    left_new = [i for i in left_ids if i in left_delta_ids]
    right_new = [i for i in right_ids if i in right_delta_ids]
    for left_id in left_new:
        for right_id in right_old:
            yield left_id, right_id
    for left_id in left_old:
        for right_id in right_new:
            yield left_id, right_id
    for left_id in left_new:
        for right_id in right_new:
            yield left_id, right_id
