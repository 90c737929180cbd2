"""Differential tests: every planner's session equals its reference algorithm.

The unified planner API is a façade, not a reimplementation: for every
planner in :data:`~repro.api.planners.PLANNERS`, a session opened with
:func:`~repro.api.open_session` must produce *bit-identical* frontier costs to
driving its algorithm directly — per planner, join-graph topology and
generator seed:

* ``iama``: the :class:`IncrementalOptimizer` loop over every level,
* ``memoryless``: one from-scratch DP at α of the top level r_M,
* ``oneshot``: one from-scratch DP at the target precision,
* ``exhaustive``: :class:`ExhaustiveParetoOptimizer`,
* ``single_objective``: :class:`SingleObjectiveOptimizer`.
"""

import pytest

from repro.api import OptimizeRequest, open_session, resolve_request
from repro.baselines.common import ApproximateParetoDP
from repro.baselines.exhaustive import ExhaustiveParetoOptimizer
from repro.baselines.single_objective import SingleObjectiveOptimizer
from repro.core.optimizer import IncrementalOptimizer

TOPOLOGIES = ("chain", "star", "cycle", "clique")
SEEDS = (0, 1)
LEVELS = 3
TABLES = 3


def request_for(algorithm, topology, seed):
    return OptimizeRequest(
        workload=f"gen:{topology}:{TABLES}:{seed}",
        algorithm=algorithm,
        scale="tiny",
        levels=LEVELS,
    )


def session_frontier(algorithm, topology, seed):
    """Frontier costs via the unified API."""
    result = open_session(request_for(algorithm, topology, seed)).run()
    return [tuple(summary.cost) for summary in result.frontier]


def reference_parts(algorithm, topology, seed):
    """A fresh (query, factory, schedule) triple identical to the API's."""
    resolved = resolve_request(request_for(algorithm, topology, seed))
    return resolved.query, resolved.factory, resolved.schedule


def dp_frontier(query, factory, alpha):
    dp = ApproximateParetoDP(query, factory)
    dp.run(factory.metric_set.unbounded_vector(), alpha)
    return [tuple(plan.cost) for plan in dp.frontier()]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("topology", TOPOLOGIES)
class TestSessionEqualsReference:
    def test_iama(self, topology, seed):
        query, factory, schedule = reference_parts("iama", topology, seed)
        optimizer = IncrementalOptimizer(query, factory, schedule)
        bounds = factory.metric_set.unbounded_vector()
        for resolution in schedule.resolutions():
            optimizer.optimize(bounds, resolution)
        final = optimizer.frontier(bounds, schedule.max_resolution)
        reference = [tuple(plan.cost) for plan in final]
        assert session_frontier("iama", topology, seed) == reference

    def test_memoryless(self, topology, seed):
        query, factory, schedule = reference_parts("memoryless", topology, seed)
        reference = dp_frontier(
            query, factory, schedule.alpha(schedule.max_resolution)
        )
        assert session_frontier("memoryless", topology, seed) == reference

    def test_oneshot(self, topology, seed):
        query, factory, schedule = reference_parts("oneshot", topology, seed)
        reference = dp_frontier(query, factory, schedule.target_precision)
        assert session_frontier("oneshot", topology, seed) == reference

    def test_exhaustive(self, topology, seed):
        query, factory, schedule = reference_parts("exhaustive", topology, seed)
        optimizer = ExhaustiveParetoOptimizer(query, factory)
        optimizer.optimize()
        reference = [tuple(plan.cost) for plan in optimizer.frontier()]
        assert session_frontier("exhaustive", topology, seed) == reference

    def test_single_objective(self, topology, seed):
        query, factory, schedule = reference_parts("single_objective", topology, seed)
        optimizer = SingleObjectiveOptimizer(query, factory)
        reference = [tuple(optimizer.optimize().cost)]
        assert session_frontier("single_objective", topology, seed) == reference
