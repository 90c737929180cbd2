"""Function ``Fresh`` (Algorithm 3): the sub-plan pairs an invocation joins.

``Fresh`` combines result plans of two table subsets but must only produce
*fresh* plans -- combinations of sub-plans never generated in any earlier
optimizer invocation (Lemma 6).  Freshness is a property of a sub-plan pair:
a pair is always joined with every operator at once.  The optimizer hands
each split's pairs to the costing step as two id columns, pair-major, built
by one of two functions:

* :func:`delta_pairs` -- the **Δ-sets**: when the invocation history shows
  that every pair of two previously existing result plans retrievable now
  has already been combined, only pairs involving at least one plan
  *inserted during the current invocation* are enumerated,
  ``ΔP1 × (P2 \\ ΔP2)  ∪  (P1 \\ ΔP1) × ΔP2  ∪  ΔP1 × ΔP2``.  Every such
  pair is fresh: only result plans are combined and none is ever removed,
  so a plan inserted during this invocation has never been combined.
* :func:`fresh_pairs` -- otherwise all pairs ``P1 × P2`` are enumerated
  and ``IsFresh`` keeps those no earlier invocation combined.  It is
  decided from the invocation history: each result plan carries a bitmask
  of the earlier invocations whose (bounds, resolution) box held it, and a
  pair is fresh exactly when the two masks share no bit (the proof is on
  the optimizer's ``_CoverageTracker``).
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Sequence, Tuple

from repro.plans.factory import repeat_each

#: Two equally long id columns: pair ``i`` is ``(left[i], right[i])``.
PairColumns = Tuple[List[int], List[int]]


def delta_split(
    plan_ids: Sequence[int], delta: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """``plan_ids`` split into ``(P \\ ΔP, ΔP)``, each in ``plan_ids`` order.

    ``plan_ids`` is a bound- and resolution-filtered result set ``P``;
    ``delta`` holds the plans inserted during the current invocation.
    """
    if not delta:
        return list(plan_ids), []
    new = set(delta)
    return (
        [plan_id for plan_id in plan_ids if plan_id not in new],
        [plan_id for plan_id in plan_ids if plan_id in new],
    )


def delta_pairs(
    left: Tuple[Sequence[int], Sequence[int]],
    right: Tuple[Sequence[int], Sequence[int]],
) -> PairColumns:
    """The Δ-set pairs of two :func:`delta_split` sides as id columns.

    Pairs come in the order ΔP1 × (P2 \\ ΔP2), (P1 \\ ΔP1) × ΔP2,
    ΔP1 × ΔP2, each pair-major.
    """
    left_old, left_new = left
    right_old, right_new = right
    lefts = (
        repeat_each(left_new, len(right_old))
        + repeat_each(left_old, len(right_new))
        + repeat_each(left_new, len(right_new))
    )
    rights = (
        list(right_old) * len(left_new)
        + list(right_new) * len(left_old)
        + list(right_new) * len(left_new)
    )
    return lefts, rights


def fresh_pairs(
    left_ids: Sequence[int],
    left_masks: Sequence[int],
    right_ids: Sequence[int],
    right_masks: Sequence[int],
) -> PairColumns:
    """The pairs of ``left_ids × right_ids`` whose masks share no bit.

    Pair-major in ``left_ids`` order, partners in ``right_ids`` order; the
    fresh partners are found once per distinct left mask.
    """
    partners_of: Dict[int, List[int]] = {}
    lefts: List[int] = []
    rights: List[int] = []
    for left_id, mask in zip(left_ids, left_masks):
        partners = partners_of.get(mask)
        if partners is None:
            partners = partners_of[mask] = [
                right_id
                for right_id, right_mask in zip(right_ids, right_masks)
                if not right_mask & mask
            ]
        if partners:
            lefts.extend(repeat(left_id, len(partners)))
            rights.extend(partners)
    return lefts, rights
