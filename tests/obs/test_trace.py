"""Unit tests for the span tracer: nesting, ring bound, exporters."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro import flags
from repro.obs import trace as trace_module
from repro.obs.trace import (
    NULL_SPAN,
    Tracer,
    chrome_trace,
    export_ndjson,
    summarize,
)


@pytest.fixture()
def tracer():
    return Tracer(capacity=16)


def _with_tracing(fn):
    with flags.overrides(tracing=True):
        return fn()


class TestSpans:
    def test_disabled_returns_the_shared_null_span(self, tracer):
        assert not flags.enabled("tracing")
        span = tracer.span("x", a=1)
        assert span is NULL_SPAN
        with span as inner:
            inner.set(b=2)  # must be a harmless no-op
        assert len(tracer) == 0

    def test_nesting_links_parent_and_child(self, tracer):
        def run():
            with tracer.span("parent", kind="outer"):
                with tracer.span("child") as child:
                    child.set(extra=3)

        _with_tracing(run)
        spans = tracer.snapshot()
        assert [s["name"] for s in spans] == ["child", "parent"]
        child, parent = spans
        assert child["trace_id"] == parent["trace_id"]
        assert child["parent_id"] == parent["span_id"]
        assert parent["parent_id"] is None
        assert child["attrs"]["extra"] == 3
        assert parent["attrs"]["kind"] == "outer"
        assert child["end"] >= child["start"]

    def test_sibling_spans_share_a_trace(self, tracer):
        def run():
            with tracer.span("root"):
                with tracer.span("a"):
                    pass
                with tracer.span("b"):
                    pass

        _with_tracing(run)
        trace_ids = {s["trace_id"] for s in tracer.snapshot()}
        assert len(trace_ids) == 1

    def test_exception_records_error_and_closes_the_span(self, tracer):
        def run():
            with pytest.raises(ValueError):
                with tracer.span("boom"):
                    raise ValueError("x")

        _with_tracing(run)
        (span,) = tracer.snapshot()
        assert span["attrs"]["error"] == "ValueError"
        assert span["end"] is not None

    def test_ring_is_bounded_and_counts_drops(self, tracer):
        def run():
            for index in range(20):
                with tracer.span(f"s{index}"):
                    pass

        _with_tracing(run)
        assert len(tracer) == 16
        assert tracer.dropped == 4
        names = [s["name"] for s in tracer.snapshot()]
        assert names[0] == "s4"  # oldest spans were overwritten

    def test_drain_empties_and_ingest_restores(self, tracer):
        with flags.overrides(tracing=True):
            with tracer.span("x"):
                pass
        drained = tracer.drain()
        assert len(drained) == 1
        assert len(tracer) == 0
        tracer.ingest(drained)
        assert tracer.snapshot() == drained


class TestContextPropagation:
    def test_current_context_inside_and_outside(self, tracer):
        assert tracer.current_context() is None

        def run():
            with tracer.span("outer"):
                ctx = tracer.current_context()
                assert set(ctx) == {"trace_id", "span_id"}
                return ctx

        ctx = _with_tracing(run)
        assert tracer.current_context() is None
        assert ctx["trace_id"]

    def test_activate_context_reroots_spans(self, tracer):
        remote = {"trace_id": "t" * 18, "span_id": "p" * 18}

        def run():
            with tracer.activate_context(remote):
                with tracer.span("local"):
                    pass

        _with_tracing(run)
        (span,) = tracer.snapshot()
        assert span["trace_id"] == remote["trace_id"]
        assert span["parent_id"] == remote["span_id"]

    def test_activate_none_is_a_noop(self, tracer):
        def run():
            with tracer.activate_context(None):
                with tracer.span("rootless"):
                    pass

        _with_tracing(run)
        (span,) = tracer.snapshot()
        assert span["parent_id"] is None


class TestExporters:
    def _spans(self, tracer):
        def run():
            with tracer.span("phase.outer", proc="front"):
                with tracer.span("phase.inner", n=1):
                    pass

        _with_tracing(run)
        return tracer.snapshot()

    def test_ndjson_round_trips(self, tracer, tmp_path):
        spans = self._spans(tracer)
        path = tmp_path / "spans.ndjson"
        text = export_ndjson(spans, path)
        assert path.read_text() == text
        lines = [json.loads(line) for line in text.splitlines()]
        assert [line["name"] for line in lines] == ["phase.inner", "phase.outer"]

    def test_chrome_trace_shape(self, tracer):
        spans = self._spans(tracer)
        payload = chrome_trace(spans)
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 2
        assert len(meta) == 1  # one process_name record per pid
        assert meta[0]["args"]["name"].startswith("pid ")
        for event in complete:
            assert event["cat"] == "phase"
            assert event["dur"] >= 0
            assert "span_id" in event["args"]

    def test_summarize_aggregates_by_name(self, tracer):
        def run():
            for _ in range(3):
                with tracer.span("a"):
                    pass
            with tracer.span("b"):
                pass

        _with_tracing(run)
        rows = summarize(tracer.snapshot())
        by_name = {row["name"]: row for row in rows}
        assert by_name["a"]["count"] == 3
        assert by_name["b"]["count"] == 1

    def test_self_time_excludes_direct_children(self, tracer):
        def run():
            for _ in range(2):
                with tracer.span("a"):
                    with tracer.span("b"):
                        with tracer.span("c"):
                            time.sleep(0.002)
                        time.sleep(0.001)
                    time.sleep(0.001)
            with tracer.span("d"):
                pass

        _with_tracing(run)
        spans = tracer.snapshot()
        by_name = {row["name"]: row for row in summarize(spans)}
        a, b, c, d = (by_name[name] for name in "abcd")
        assert a["self_seconds"] == pytest.approx(a["seconds"] - b["seconds"])
        assert b["self_seconds"] == pytest.approx(b["seconds"] - c["seconds"])
        assert c["self_seconds"] == c["seconds"] > 0
        assert d["self_seconds"] == d["seconds"]
        assert a["self_seconds"] > 0 and b["self_seconds"] > 0
        roots = sum(
            span["end"] - span["start"] for span in spans if span["parent_id"] is None
        )
        assert sum(row["self_seconds"] for row in by_name.values()) == (
            pytest.approx(roots)
        )


class TestModuleLevelTracer:
    def test_module_wrappers_share_one_tracer(self):
        trace_module.clear()
        with flags.overrides(tracing=True):
            with trace_module.span("module.level"):
                assert trace_module.current_context() is not None
        assert len(trace_module.tracer()) == 1
        assert trace_module.snapshot()[0]["name"] == "module.level"
        trace_module.clear()
        assert trace_module.snapshot() == []

    def test_ingesting_nothing_takes_no_lock(self):
        # A pool reader thread ingests every shard heartbeat; with tracing
        # off they carry no spans and must not contend for the lock.
        returned = threading.Event()
        worker = threading.Thread(
            target=lambda: (trace_module.ingest(()), returned.set()), daemon=True
        )
        with trace_module._TRACER._lock:
            worker.start()
            assert returned.wait(0.5), "ingest(()) waited for the tracer lock"
        worker.join(timeout=5.0)
        assert not worker.is_alive()
