"""Explain output for arena-backed plans vs the pre-refactor tree rendering.

``explain_plan`` used to walk heap plan trees whose nodes carried their own
tables/cost/operator attributes.  Arena-backed plans reconstruct the tree from
id columns instead; this suite pins the output to the pre-refactor format with
an independent *reference renderer* that formats straight from the raw arena
columns (never through ``Plan`` handles), replicating the original
``_explain_into`` algorithm line for line.  Properties:

* for every frontier plan of every generated topology (chain/star/cycle/
  clique), ``explain_plan`` equals the reference rendering,
* ``explain_plan_id`` equals ``explain_plan`` for the same plan,
* randomly composed plan trees (hypothesis) render identically too.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import OptimizeRequest, open_session
from repro.costs.metrics import paper_metric_set
from repro.plans.arena import KIND_JOIN, KIND_SCAN, PlanArena
from repro.plans.explain import explain_plan, explain_plan_id
from tests.conftest import join_plan, scan_plan

TOPOLOGIES = ("chain", "star", "cycle", "clique")


def reference_explain(arena, plan_id, metric_set, indent="  "):
    """The pre-refactor rendering, computed from raw arena columns only."""
    lines = []

    def render(plan_id, depth):
        row = arena.cost_row(plan_id)
        costs = ", ".join(
            f"{name}={value:.4g}" for name, value in zip(metric_set.names, row)
        )
        prefix = indent * depth
        kind = arena.kind_of(plan_id)
        operator = arena.operator_of(plan_id)
        if kind == KIND_SCAN:
            table = next(iter(arena.tables_of(plan_id)))
            lines.append(f"{prefix}{operator.label} on {table}  [{costs}]")
            return
        assert kind == KIND_JOIN
        tables = ",".join(sorted(arena.tables_of(plan_id)))
        order = arena.order_of(plan_id)
        order_suffix = f", order={order}" if order else ""
        lines.append(
            f"{prefix}{operator.label} joining {{{tables}}}  [{costs}]{order_suffix}"
        )
        render(arena.left_of(plan_id), depth + 1)
        render(arena.right_of(plan_id), depth + 1)

    render(plan_id, 0)
    return "\n".join(lines)


class TestExplainMatchesPreRefactorRendering:
    def test_all_topology_frontier_plans(self):
        for topology in TOPOLOGIES:
            for seed in (0, 1):
                session = open_session(
                    OptimizeRequest(
                        workload=f"gen:{topology}:4:{seed}",
                        algorithm="iama",
                        scale="tiny",
                        levels=3,
                    )
                )
                result = session.run()
                assert result.frontier_size > 0
                optimizer = session.driver.optimizer
                metric_set = session.driver.factory.metric_set
                arena = optimizer.arena
                bounds = metric_set.unbounded_vector()
                plans = optimizer.frontier(bounds, optimizer.schedule.max_resolution)
                assert plans
                for plan in plans:
                    expected = reference_explain(arena, plan.plan_id, metric_set)
                    assert explain_plan(plan, metric_set) == expected
                    assert explain_plan_id(arena, plan.plan_id, metric_set) == expected

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.data(),
        leaf_count=st.integers(min_value=1, max_value=6),
    )
    def test_random_plan_trees(self, data, leaf_count):
        metric_set = paper_metric_set()
        dims = metric_set.dimensions
        cost = st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=dims,
            max_size=dims,
        )
        arena = PlanArena(dims)
        nodes = [
            scan_plan(arena, data.draw(cost), table=f"t{i}")
            for i in range(leaf_count)
        ]
        algorithms = ("hash_join", "sort_merge_join", "nested_loop_join")
        while len(nodes) > 1:
            left = nodes.pop(data.draw(st.integers(0, len(nodes) - 1)))
            right = nodes.pop(data.draw(st.integers(0, len(nodes) - 1)))
            algorithm = data.draw(st.sampled_from(algorithms))
            order = (
                "sorted:" + ",".join(sorted(left.tables))
                if algorithm == "sort_merge_join"
                else None
            )
            nodes.append(
                join_plan(left, right, data.draw(cost), algorithm, order=order)
            )
        root = nodes[0]
        expected = reference_explain(root.arena, root.plan_id, metric_set)
        assert explain_plan(root, metric_set) == expected
        assert explain_plan_id(root.arena, root.plan_id, metric_set) == expected
