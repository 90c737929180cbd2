"""End-to-end tests of the HTTP wire layer (server + client)."""

from __future__ import annotations

import pytest

from repro.api import OptimizeRequest, open_session
from repro.api.schema import SCHEMA_VERSION, OptimizationResult
from repro.service import (
    PlanningServer,
    PlanningService,
    ServiceClient,
    ServiceClientError,
    submit_payload,
)

TINY = dict(levels=3, scale="tiny")


@pytest.fixture()
def server():
    service = PlanningService(workers=2, max_sessions=4)
    with PlanningServer(service, port=0).start() as running:
        yield running


@pytest.fixture()
def client(server):
    host, port = server.address
    return ServiceClient(host, port)


class TestWireProtocol:
    def test_health_and_planners(self, client):
        health = client.health()
        assert health["kind"] == "service_health"
        assert health["status"] == "ok"
        assert len(health["workers"]) == 1
        worker = health["workers"][0]
        assert worker["alive"] and worker["pid"] > 0
        planners = client.planners()
        assert "iama" in planners and "exhaustive" in planners

    def test_submit_poll_result_roundtrip(self, client):
        request = OptimizeRequest(workload="gen:chain:4:0", **TINY)
        status = client.submit(request)
        assert status["kind"] == "job_status"
        assert status["workload"] == "gen:chain:4:0"
        result = client.result(status["ticket"], timeout=60.0)
        serial = open_session(request).run()
        assert [tuple(s.cost) for s in result.frontier] == [
            tuple(s.cost) for s in serial.frontier
        ]
        # The embedded payload survives a full schema round trip.
        final = client.poll(status["ticket"])
        assert OptimizationResult.from_dict(final["result"]).to_dict() == final["result"]

    def test_submit_request_with_scheduling_keys_is_accepted(self, client):
        # Older clients send a priority and a scheduling deadline with every
        # submission; the service ignores both and runs the request as usual.
        request = OptimizeRequest(workload="gen:chain:4:1", **TINY)
        payload = {**submit_payload(request), "priority": 5, "deadline_seconds": 2.0}
        assert payload["schema_version"] == SCHEMA_VERSION == 1
        ticket = client._request("POST", "/v1/jobs", payload)["ticket"]
        result = client.result(ticket, timeout=60.0)
        assert client.poll(ticket)["state"] == "finished"
        serial = open_session(request).run()
        assert [tuple(s.cost) for s in result.frontier] == [
            tuple(s.cost) for s in serial.frontier
        ]

    def test_second_submission_is_a_cache_hit(self, client):
        request = OptimizeRequest(workload="gen:star:4:1", **TINY)
        first = client.submit(request)
        client.result(first["ticket"], timeout=60.0)
        second = client.submit(request)
        client.result(second["ticket"], timeout=60.0)
        assert client.poll(second["ticket"])["cache_status"] == "hit"

    def test_stream_emits_monotone_updates_then_status(self, client):
        request = OptimizeRequest(workload="gen:cycle:4:0", **TINY)
        ticket = client.submit(request)["ticket"]
        lines = list(client.stream(ticket))
        kinds = [line["kind"] for line in lines]
        assert kinds == ["frontier_update"] * request.levels + ["job_status"]
        alphas = [
            line["invocation"]["alpha"]
            for line in lines
            if line["kind"] == "frontier_update"
        ]
        assert alphas == sorted(alphas, reverse=True)
        assert lines[-1]["state"] == "finished"

    def test_remote_steer_select(self):
        # Manual-mode service behind the wire layer: the session only
        # advances when the test steps it, so the steer timing is exact.
        service = PlanningService(workers=0, cache=False)
        with PlanningServer(service, port=0).start() as running:
            host, port = running.address
            manual = ServiceClient(host, port)
            request = OptimizeRequest(workload="gen:star:4:2", levels=6, scale="tiny")
            ticket = manual.submit(request)["ticket"]
            service.step_once()
            manual.select(ticket, 0)
            service.run_until_idle()
            result = manual.result(ticket, timeout=10.0)
            assert result.finish_reason == "selected"
            assert result.selected_plan is not None

    def test_steering_with_wrong_dimensionality_is_a_400(self):
        service = PlanningService(workers=0, cache=False)
        with PlanningServer(service, port=0).start() as running:
            host, port = running.address
            manual = ServiceClient(host, port)
            request = OptimizeRequest(workload="gen:star:4:0", levels=4, scale="tiny")
            ticket = manual.submit(request)["ticket"]
            service.step_once()
            with pytest.raises(ServiceClientError) as err:
                manual.steer_bounds(ticket, [1.0])  # session has 3 metrics
            assert err.value.status == 400
            # The job is unharmed by the rejected steer.
            service.run_until_idle()
            assert manual.poll(ticket)["state"] == "finished"

    def test_steering_a_finished_job_is_a_409(self, client):
        request = OptimizeRequest(workload="gen:chain:3:0", levels=2, scale="tiny")
        ticket = client.submit(request)["ticket"]
        client.result(ticket, timeout=60.0)
        with pytest.raises(ServiceClientError) as err:
            client.select(ticket, 0)
        assert err.value.status == 409

    def test_cancel_over_the_wire(self, client):
        request = OptimizeRequest(workload="gen:clique:4:3", levels=8, scale="tiny")
        ticket = client.submit(request)["ticket"]
        client.cancel(ticket)
        # The cancel lands at a slice boundary; wait for the terminal state
        # (the job may also have finished legitimately just before).
        deadline = 60.0
        while True:
            status = client.poll(ticket)
            if status["state"] in ("cancelled", "finished"):
                break
            deadline -= 0.02
            assert deadline > 0, f"job stuck in {status['state']}"
            import time

            time.sleep(0.02)
        assert status["state"] in ("cancelled", "finished")

    def test_stats_endpoint(self, client):
        request = OptimizeRequest(workload="gen:chain:3:0", levels=2, scale="tiny")
        client.result(client.submit(request)["ticket"], timeout=60.0)
        stats = client.stats()
        assert stats["kind"] == "service_stats"
        assert stats["scheduler"]["submitted"] >= 1
        assert "hits" in stats["cache"]

    def test_error_mapping(self, client):
        with pytest.raises(ServiceClientError) as err:
            client.poll("job-424242")
        assert err.value.status == 404
        with pytest.raises(ServiceClientError) as err:
            client._request("POST", "/v1/jobs", {"schema_version": 1, "kind": "nope"})
        assert err.value.status == 400
        with pytest.raises(ServiceClientError) as err:
            client._request("GET", "/v1/unknown")
        assert err.value.status == 404

    def test_malformed_workload_is_a_400(self, client):
        with pytest.raises(ServiceClientError) as err:
            client.submit(OptimizeRequest(workload="gen:star:nope"))
        assert err.value.status == 400


class TestBackpressure:
    def test_full_backlog_maps_to_503(self):
        service = PlanningService(
            workers=0, max_sessions=1, max_queue=0, cache=False
        )
        with PlanningServer(service, port=0).start() as running:
            host, port = running.address
            client = ServiceClient(host, port)
            request = OptimizeRequest(workload="gen:chain:4:0", levels=8, scale="tiny")
            client.submit(request)  # occupies the only session slot
            with pytest.raises(ServiceClientError) as err:
                client.submit(
                    OptimizeRequest(workload="gen:star:4:0", levels=8, scale="tiny")
                )
            assert err.value.status == 503
