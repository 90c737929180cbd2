"""Tests of the planner table: five names, one summary each, nothing else."""

import pytest

from repro import cli
from repro.api import PLANNERS, OptimizeRequest, open_session
from repro.service import PlanningServer, PlanningService, ServiceClient
from repro.service.shard import WorkerPoolService

NAMES = ("exhaustive", "iama", "memoryless", "oneshot", "single_objective")
TABLE = {name: PLANNERS[name].summary for name in NAMES}

#: Names outside the table: other spellings of ``iama`` and ``oneshot``, and
#: ``single_objective`` with a capital and a dash.
REJECTED = ("incremental_anytime", "one_shot", "Single-Objective")
NAMES_THE_FIVE = "exhaustive, iama, memoryless, oneshot, single_objective"


def request_for(algorithm):
    return OptimizeRequest(
        workload="gen:chain:3:0", algorithm=algorithm, scale="tiny", levels=2
    )


class TestPlannerTable:
    def test_planners_lists_the_five_names_each_with_a_summary(self):
        assert tuple(PLANNERS) == NAMES
        for name, driver in PLANNERS.items():
            assert driver.name == name
            assert driver.summary
        assert {name for name, driver in PLANNERS.items() if driver.refines} == {
            "iama",
            "memoryless",
        }

    def test_cli_planners_prints_the_table(self, capsys):
        assert cli.main(["planners"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"{name:>18}  {summary}" for name, summary in TABLE.items()]

    def test_http_planners_serves_the_table(self):
        service = PlanningService(workers=0)
        with PlanningServer(service, port=0).start() as running:
            host, port = running.address
            planners = ServiceClient(host, port).planners()
        assert planners == TABLE
        assert list(planners) == list(NAMES)

    @pytest.mark.parametrize("name", REJECTED)
    def test_open_session_rejects_names_outside_the_table(self, name):
        with pytest.raises(KeyError, match=NAMES_THE_FIVE):
            open_session(request_for(name))

    @pytest.mark.parametrize("name", REJECTED)
    def test_planning_service_rejects_names_outside_the_table(self, name):
        with PlanningService(workers=0) as service:
            with pytest.raises(KeyError, match=NAMES_THE_FIVE):
                service.submit(request_for(name))
            assert service.tickets() == []

    def test_worker_pool_rejects_names_before_registering_a_job(self):
        with WorkerPoolService(workers=1) as pool:
            for name in REJECTED:
                with pytest.raises(KeyError, match=NAMES_THE_FIVE):
                    pool.submit(request_for(name))
            assert pool.tickets() == []
