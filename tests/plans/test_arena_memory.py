"""What a session's plan arena allocates against what it is charged.

The frontier cache charges a parked session ``arena.stats().approx_bytes``
(the cost rows plus the id columns).  The arena must therefore hold little
beyond those columns: no per-plan slot for handles or cost vectors, only the
handles materialized so far.  This test runs a 5-level session under
``tracemalloc`` and bounds the memory still allocated from the arena's own
modules (``plans/arena.py`` and ``costs/matrix.py``) by the charged estimate,
for a TPC-H block, a generated query and a template query.
"""

import tracemalloc

import pytest

from repro.api import OptimizeRequest, open_session
from repro.costs import matrix as matrix_module
from repro.plans import arena as arena_module

#: Allocated bytes per charged byte.  Over-allocation of the growing columns
#: accounts for the rest: the ratio reads 1.06-1.14 on ``tpch:q08``,
#: ``gen:clique:5:0`` and ``template:ss_address_rollup:5``.
MAX_RATIO = 1.2


@pytest.mark.parametrize(
    "workload", ("tpch:q08", "gen:clique:5:0", "template:ss_address_rollup:5")
)
def test_arena_allocations_stay_within_the_charged_estimate(workload):
    tracemalloc.start()
    try:
        session = open_session(
            OptimizeRequest(workload=workload, levels=5, scale="smoke")
        )
        session.run()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    own_modules = [
        tracemalloc.Filter(True, module.__file__)
        for module in (arena_module, matrix_module)
    ]
    held = sum(trace.size for trace in snapshot.filter_traces(own_modules).traces)
    charged = session.driver.factory.arena.stats().approx_bytes
    assert charged > 0
    assert held <= MAX_RATIO * charged, (
        f"the arena's modules hold {held} bytes, "
        f"{held / charged:.2f}x the {charged} bytes it is charged"
    )
