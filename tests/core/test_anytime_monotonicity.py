"""Property-based test: the anytime frontier never regresses across timeslices.

The point of an anytime optimizer is that interrupting it later can only give
better answers.  Concretely, across the invocations of a resolution sweep
(the paper's non-interactive protocol), every cost tradeoff visualized after
timeslice ``i`` must still be *dominated-or-present* after timeslice ``i+1``:
either the exact cost vector is still in the frontier, or some newly revealed
vector weakly dominates it.  A violation would mean the user watched a
previously offered tradeoff silently disappear without replacement.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import open_planner
from repro.catalog.cardinality import CardinalityEstimator
from repro.core.resolution import ResolutionSchedule
from repro.costs.dominance import dominates
from repro.costs.metrics import paper_metric_set
from repro.costs.model import MultiObjectiveCostModel
from repro.plans.factory import PlanFactory
from repro.plans.operators import OperatorRegistry
from repro.workloads.generator import SyntheticWorkloadGenerator, Topology


def make_factory(generated) -> PlanFactory:
    registry = OperatorRegistry(
        parallelism_levels=(1, 2),
        sampling_rates=(0.1,),
        small_table_rows=500,
        join_algorithms=("hash_join", "nested_loop_join"),
    )
    estimator = CardinalityEstimator(generated.statistics, generated.query.join_graph)
    return PlanFactory(estimator, MultiObjectiveCostModel(paper_metric_set()), registry)


@st.composite
def synthetic_queries(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    table_count = draw(st.integers(min_value=1, max_value=4))
    topology = draw(st.sampled_from(list(Topology)))
    generator = SyntheticWorkloadGenerator(seed=seed, min_rows=100, max_rows=200_000)
    return generator.generate(table_count, topology)


@st.composite
def schedules(draw):
    levels = draw(st.integers(min_value=2, max_value=5))
    target = draw(st.floats(min_value=1.005, max_value=1.2))
    step = draw(st.floats(min_value=0.0, max_value=0.5))
    return ResolutionSchedule(levels=levels, target_precision=target, precision_step=step)


def sweep(generated, schedule):
    """The frontier updates of one ``iama`` resolution sweep."""
    session = open_planner(
        "iama", generated.query, make_factory(generated), schedule
    )
    return list(session.updates())


def covered(cost, frontier_costs) -> bool:
    """Dominated-or-present: some later vector is at least as good everywhere."""
    return any(dominates(other, cost) for other in frontier_costs)


query_settings = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestFrontierMonotonicity:
    @query_settings
    @given(synthetic_queries(), schedules())
    def test_every_timeslice_preserves_earlier_tradeoffs(self, generated, schedule):
        updates = sweep(generated, schedule)
        assert updates, "the sweep must produce at least one timeslice"
        for earlier, later in zip(updates, updates[1:]):
            later_costs = later.frontier_costs
            for cost in earlier.frontier_costs:
                assert covered(cost, later_costs), (
                    f"cost {cost} visualized at iteration "
                    f"{earlier.invocation.index} is neither present nor "
                    f"dominated at iteration {later.invocation.index}"
                )

    @query_settings
    @given(synthetic_queries(), schedules())
    def test_final_frontier_covers_every_timeslice(self, generated, schedule):
        """Transitivity spot check straight against the final frontier."""
        updates = sweep(generated, schedule)
        final_costs = updates[-1].frontier_costs
        for update in updates[:-1]:
            for cost in update.frontier_costs:
                assert covered(cost, final_costs)
