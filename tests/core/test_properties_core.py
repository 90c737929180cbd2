"""Property-based tests for the IAMA core over random synthetic queries.

These are the end-to-end invariants of the algorithm:

* Theorem 2: the result set after optimizing at resolution ``r`` is an
  ``alpha_r^n``-approximate Pareto plan set (checked against the exhaustive
  optimizer over the identical search space),
* Lemma 5/6: plans and sub-plan combinations are never generated twice across
  a whole invocation series,
* the incremental series and a from-scratch run at the final precision agree
  on what the best achievable single-metric costs are (up to the guarantee).
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import open_planner
from repro.baselines.exhaustive import ExhaustiveParetoOptimizer
from repro.catalog.cardinality import CardinalityEstimator
from repro.core.optimizer import IncrementalOptimizer
from repro.core.resolution import ResolutionSchedule
from repro.costs.metrics import paper_metric_set
from repro.costs.model import MultiObjectiveCostModel
from repro.costs.pareto import approximation_error
from repro.plans.factory import PlanFactory
from repro.plans.operators import OperatorRegistry
from repro.workloads.generator import SyntheticWorkloadGenerator, Topology
from tests.conftest import assert_each_join_built_once


def make_factory(generated):
    registry = OperatorRegistry(
        parallelism_levels=(1, 2),
        sampling_rates=(0.1,),
        small_table_rows=500,
        join_algorithms=("hash_join", "nested_loop_join"),
    )
    estimator = CardinalityEstimator(generated.statistics, generated.query.join_graph)
    return PlanFactory(estimator, MultiObjectiveCostModel(paper_metric_set()), registry)


query_settings = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def synthetic_queries(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    table_count = draw(st.integers(min_value=1, max_value=4))
    topology = draw(st.sampled_from([Topology.CHAIN, Topology.STAR, Topology.CYCLE]))
    generator = SyntheticWorkloadGenerator(seed=seed, min_rows=100, max_rows=200_000)
    return generator.generate(table_count, topology)


@st.composite
def schedules(draw):
    levels = draw(st.integers(min_value=1, max_value=4))
    target = draw(st.floats(min_value=1.01, max_value=1.3))
    step = draw(st.floats(min_value=0.0, max_value=0.5))
    return ResolutionSchedule(levels=levels, target_precision=target, precision_step=step)


class TestTheorem2:
    @query_settings
    @given(synthetic_queries(), schedules())
    def test_final_result_covers_exact_frontier(self, generated, schedule):
        query = generated.query
        factory = make_factory(generated)
        optimizer = IncrementalOptimizer(query, factory, schedule)
        bounds = factory.metric_set.unbounded_vector()
        for resolution in range(schedule.levels):
            optimizer.optimize(bounds, resolution)
        approx = [p.cost for p in optimizer.frontier(bounds, schedule.max_resolution)]

        exact = ExhaustiveParetoOptimizer(query, make_factory(generated))
        exact.optimize()
        exact_costs = [p.cost for p in exact.frontier()]

        guarantee = schedule.guaranteed_precision(query.table_count)
        assert approximation_error(approx, exact_costs) <= guarantee + 1e-9

    @query_settings
    @given(synthetic_queries())
    def test_every_table_subset_has_result_plans(self, generated):
        query = generated.query
        factory = make_factory(generated)
        schedule = ResolutionSchedule(levels=2, target_precision=1.1, precision_step=0.2)
        optimizer = IncrementalOptimizer(query, factory, schedule)
        bounds = factory.metric_set.unbounded_vector()
        optimizer.optimize(bounds, 0)
        # Every connected table subset that the enumerator considers must end
        # up with at least one result plan under unbounded cost bounds.
        for tables, index in optimizer.state.populated_result_sets().items():
            assert len(index) > 0
        assert len(optimizer.frontier(bounds, 0)) > 0


class TestIncrementalInvariants:
    @query_settings
    @given(synthetic_queries(), schedules())
    def test_no_duplicate_plan_generation_across_series(self, generated, schedule):
        query = generated.query
        factory = make_factory(generated)
        loop = open_planner("iama", query, factory, schedule)
        loop.run()
        assert_each_join_built_once(factory)
        # Scan plans are seeded exactly once.
        rows = {t: factory.estimator.base_cardinality(t) for t in query.tables}
        expected_scans = sum(
            len(factory.operators.scan_operators(rows[t])) for t in query.tables
        )
        assert factory.counters.scan_plans_built == expected_scans

    @query_settings
    @given(synthetic_queries())
    def test_frontier_grows_monotonically_with_resolution(self, generated):
        query = generated.query
        factory = make_factory(generated)
        schedule = ResolutionSchedule(levels=3, target_precision=1.05, precision_step=0.3)
        loop = open_planner("iama", query, factory, schedule)
        sizes = [len(update.frontier) for update in loop.updates()]
        assert all(later >= earlier for earlier, later in zip(sizes, sizes[1:]))

    @query_settings
    @given(synthetic_queries())
    def test_incremental_matches_oneshot_best_costs_within_guarantee(self, generated):
        """The anytime series must not lose the best achievable single-metric costs."""
        query = generated.query
        schedule = ResolutionSchedule(levels=3, target_precision=1.05, precision_step=0.3)

        factory_a = make_factory(generated)
        loop = open_planner("iama", query, factory_a, schedule)
        loop.run()
        final_frontier = loop.last_update.frontier_costs

        exact = ExhaustiveParetoOptimizer(query, make_factory(generated))
        exact.optimize()
        exact_frontier = [p.cost for p in exact.frontier()]

        guarantee = schedule.guaranteed_precision(query.table_count)
        for metric_index in range(len(exact_frontier[0])):
            best_exact = min(c[metric_index] for c in exact_frontier)
            best_approx = min(c[metric_index] for c in final_frontier)
            assert best_approx <= best_exact * guarantee + 1e-9
