"""CLI coverage for the ``serve`` and ``submit`` verbs."""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from repro.api.schema import OptimizationResult
from repro.cli import build_parser, build_server, main


@pytest.fixture()
def running_server():
    args = build_parser().parse_args(
        ["serve", "--port", "0", "--jobs", "2"]
    )
    server = build_server(args).start()
    try:
        yield server
    finally:
        server.close()


def _submit(port, *extra):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(
            [
                "submit",
                "gen:chain:3:0",
                "--port",
                str(port),
                "--levels",
                "2",
                "--scale",
                "tiny",
                *extra,
            ]
        )
    return code, buffer.getvalue()


class TestSubmitCommand:
    def test_text_output_reports_cache_and_frontier(self, running_server):
        _, port = running_server.address
        code, out = _submit(port)
        assert code == 0
        assert "cache: miss" in out
        assert "finish reason: exhausted" in out
        code, out = _submit(port)
        assert "cache: hit" in out

    def test_stream_prints_one_line_per_invocation(self, running_server):
        _, port = running_server.address
        code, out = _submit(port, "--stream")
        assert code == 0
        stream_lines = [line for line in out.splitlines() if "resolution" in line]
        assert len(stream_lines) == 2
        assert "alpha" in stream_lines[0]

    def test_json_round_trips_the_optimization_result(self, running_server):
        _, port = running_server.address
        code, out = _submit(port, "--json")
        assert code == 0
        payload = json.loads(out)
        result = OptimizationResult.from_dict(payload)
        assert result.to_dict() == payload
        assert result.algorithm == "iama"
        assert result.frontier_size > 0

    def test_budget_flags_reach_the_session(self, running_server):
        _, port = running_server.address
        code, out = _submit(port, "--max-invocations", "1", "--json")
        payload = json.loads(out)
        assert payload["finish_reason"] == "invocation_cap"
        assert len(payload["invocations"]) == 1

    def test_unreachable_service_exits_with_a_hint(self):
        with pytest.raises(SystemExit) as err:
            _submit(1)  # port 1: nothing listens there
        assert "repro-moqo serve" in str(err.value)

    def test_malformed_workload_exits_cleanly(self, running_server):
        _, port = running_server.address
        buffer = io.StringIO()
        with pytest.raises(SystemExit), contextlib.redirect_stdout(buffer):
            main(["submit", "gen:star:nope", "--port", str(port)])


class TestServeCommand:
    @pytest.mark.parametrize(
        "argv",
        (
            ["serve", "--policy", "fair"],
            ["submit", "gen:chain:3:0", "--priority", "1"],
            ["submit", "gen:chain:3:0", "--deadline", "5"],
        ),
        ids=("serve-policy", "submit-priority", "submit-deadline"),
    )
    def test_scheduling_flags_are_not_accepted(self, argv):
        # Every job is served by one round-robin rule in FIFO order, so
        # there is no policy, priority or scheduling deadline to choose.
        with pytest.raises(SystemExit) as err, contextlib.redirect_stderr(
            io.StringIO()
        ):
            build_parser().parse_args(argv)
        assert err.value.code == 2

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.jobs == 2
        assert args.max_sessions == 8
        assert not args.no_cache

    def test_build_server_honours_flags(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--port",
                "0",
                "--jobs",
                "3",
                "--max-sessions",
                "5",
                "--no-cache",
            ]
        )
        server = build_server(args)
        try:
            assert server.service.scheduler.workers == 3
            assert server.service.scheduler.max_sessions == 5
            assert server.service.cache is None
        finally:
            server.close()
