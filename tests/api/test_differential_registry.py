"""Differential tests: the registry path must equal the legacy entry points.

The unified planner API is a façade, not a reimplementation: for every
registered algorithm, opening a session through the :class:`PlannerRegistry`
must produce *bit-identical* frontier costs to driving the legacy optimizer
class directly — per algorithm, join-graph topology and generator seed.
"""

import pytest

from repro.api import OptimizeRequest, open_session, resolve_request
from repro.baselines.exhaustive import ExhaustiveParetoOptimizer
from repro.baselines.memoryless import MemorylessAnytimeOptimizer
from repro.baselines.oneshot import OneShotOptimizer
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


def registry_frontier(algorithm, topology, seed):
    """Frontier costs via the unified API."""
    result = open_session(request_for(algorithm, topology, seed)).run()
    return [tuple(summary.cost) for summary in result.frontier]


def legacy_parts(algorithm, topology, seed):
    """A fresh (query, factory, schedule) triple identical to the API's."""
    resolved = resolve_request(request_for(algorithm, topology, seed))
    return resolved.query, resolved.factory, resolved.schedule


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("topology", TOPOLOGIES)
class TestRegistryEqualsLegacy:
    def test_iama(self, topology, seed):
        query, factory, schedule = legacy_parts("iama", topology, seed)
        optimizer = IncrementalOptimizer(query, factory, schedule)
        bounds = factory.metric_set.unbounded_vector()
        for resolution in schedule.resolutions():
            optimizer.optimize(bounds, resolution)
        final = optimizer.frontier(bounds, schedule.max_resolution)
        legacy = [tuple(plan.cost) for plan in final]
        assert registry_frontier("iama", topology, seed) == legacy

    def test_memoryless(self, topology, seed):
        query, factory, schedule = legacy_parts("memoryless", topology, seed)
        optimizer = MemorylessAnytimeOptimizer(query, factory, schedule)
        for resolution in schedule.resolutions():
            optimizer.step(resolution=resolution)
        legacy = [tuple(plan.cost) for plan in optimizer.frontier()]
        assert registry_frontier("memoryless", topology, seed) == legacy

    def test_oneshot(self, topology, seed):
        query, factory, schedule = legacy_parts("oneshot", topology, seed)
        optimizer = OneShotOptimizer(query, factory, schedule)
        optimizer.optimize()
        legacy = [tuple(plan.cost) for plan in optimizer.frontier()]
        assert registry_frontier("oneshot", topology, seed) == legacy

    def test_exhaustive(self, topology, seed):
        query, factory, schedule = legacy_parts("exhaustive", topology, seed)
        optimizer = ExhaustiveParetoOptimizer(query, factory)
        optimizer.optimize()
        legacy = [tuple(plan.cost) for plan in optimizer.frontier()]
        assert registry_frontier("exhaustive", topology, seed) == legacy

    def test_single_objective(self, topology, seed):
        query, factory, schedule = legacy_parts("single_objective", topology, seed)
        optimizer = SingleObjectiveOptimizer(query, factory)
        legacy = [tuple(optimizer.optimize().cost)]
        assert registry_frontier("single_objective", topology, seed) == legacy
