"""Span tracer: nested spans, bounded ring buffer, Perfetto export.

Design constraints, in order:

1. **Zero overhead when off.**  ``tracing`` is the only feature flag that
   defaults to *off*; every instrumented seam calls :func:`span` which, on
   the disabled path, performs one ``flags.enabled`` dict lookup and
   returns a shared stateless no-op context manager.  No allocation, no
   clock read, no contextvar traffic.

2. **Monotonic time.**  Span timestamps come from ``time.monotonic()``,
   which on Linux is ``CLOCK_MONOTONIC`` — shared across processes on the
   same box, so parent and shard spans land on one comparable timeline in
   the exported trace.

3. **Bounded memory.**  Finished spans go into a ``deque(maxlen=...)``
   ring; a runaway session overwrites its oldest spans instead of growing
   without bound.

4. **Cross-process coherence.**  :func:`current_context` captures the
   active ``(trace_id, span_id)`` pair for embedding in a pipe message;
   :func:`activate_context` re-roots the receiving process's spans under
   that remote parent.  Shards :func:`drain` their ring and ship the raw
   span dicts back over the pipe; the parent :func:`ingest`\\ s them, so
   one submit yields one trace spanning every pid involved.

Span identifiers are derived from ``(pid, per-process counter)`` — unique
without any entropy source, so tracing never perturbs the deterministic
parts of the system (ids appear only in exported artifacts).
"""

from __future__ import annotations

import io
import itertools
import json
import os
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro import flags

#: Default ring capacity: generous for a full bench run, bounded for a
#: long-lived service process.
DEFAULT_CAPACITY = 65536

_ids = itertools.count(1)


def _new_id() -> str:
    """Process-unique hex id (pid + per-process counter, no entropy)."""
    return f"{os.getpid():08x}{next(_ids):010x}"


class Span:
    """One finished-or-active span.  Mutable while active, frozen by export."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attrs",
        "pid",
        "tid",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        attrs: Dict[str, Any],
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = time.monotonic()
        self.end: Optional[float] = None
        self.attrs = attrs
        self.pid = os.getpid()
        self.tid = threading.get_ident()

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) typed attributes on the active span."""
        self.attrs.update(attrs)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": dict(self.attrs),
        }


class _ActiveSpan:
    """Context manager wrapping one live :class:`Span`."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._token = None

    def __enter__(self) -> Span:
        self._token = self._tracer._current.set(
            (self._span.trace_id, self._span.span_id)
        )
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._span.end = time.monotonic()
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._current.reset(self._token)
        self._tracer._record(self._span)

    # Convenience so call sites can ``with span(...) as s: s.set(...)``
    # or just ``span(...).set(...)`` symmetrically with the null span.
    def set(self, **attrs: Any) -> None:
        self._span.set(**attrs)


class _NullSpan:
    """Shared, stateless stand-in returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


NULL_SPAN = _NullSpan()


class Tracer:
    """Bounded recorder of finished spans with contextvar nesting."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._ring: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._current: ContextVar[Optional[Tuple[str, str]]] = ContextVar(
            "repro_obs_span", default=None
        )
        self.dropped = 0

    # -- recording -----------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a span (or the shared no-op when ``tracing`` is off)."""
        if not flags.enabled("tracing"):
            return NULL_SPAN
        parent = self._current.get()
        if parent is None:
            trace_id = _new_id()
            parent_id: Optional[str] = None
        else:
            trace_id, parent_id = parent
        return _ActiveSpan(self, Span(name, trace_id, _new_id(), parent_id, attrs))

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._ring) == self._ring.maxlen:
                self.dropped += 1
            self._ring.append(span.to_dict())

    # -- cross-process propagation ------------------------------------

    def current_context(self) -> Optional[Dict[str, str]]:
        """The active ``{"trace_id", "span_id"}`` pair, or ``None``."""
        current = self._current.get()
        if current is None:
            return None
        return {"trace_id": current[0], "span_id": current[1]}

    def activate_context(self, ctx: Optional[Dict[str, str]]):
        """Re-root subsequent spans under a remote parent context."""
        if not ctx or not flags.enabled("tracing"):
            return _NullActivation()
        return _Activation(self, (ctx["trace_id"], ctx["span_id"]))

    def ingest(self, spans: Iterable[Dict[str, Any]]) -> int:
        """Absorb span dicts shipped from another process.

        Nothing to absorb takes no lock: a pool reader thread ingests every
        shard heartbeat, and with tracing off they carry no spans.
        """
        batch = [dict(span) for span in spans]
        if not batch:
            return 0
        with self._lock:
            for span in batch:
                if len(self._ring) == self._ring.maxlen:
                    self.dropped += 1
                self._ring.append(span)
        return len(batch)

    def drain(self) -> List[Dict[str, Any]]:
        """Pop and return every recorded span (for shipping over a pipe)."""
        with self._lock:
            spans = list(self._ring)
            self._ring.clear()
        return spans

    # -- inspection / export -------------------------------------------

    def snapshot(self) -> List[Dict[str, Any]]:
        """A copy of the recorded spans, oldest first (non-destructive)."""
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def _reset_in_forked_child(self) -> None:
        """Start a forked child with a fresh lock and an empty ring.

        The child inherits the lock in whatever state another parent thread
        held it at the fork (a held lock would block the child's first
        :meth:`drain` forever), and the parent's spans, which a shard would
        otherwise ship back for the parent to ingest a second time.
        """
        self._lock = threading.Lock()
        self._ring = deque(maxlen=self._ring.maxlen)
        self.dropped = 0


# -- module-level default tracer ---------------------------------------

_TRACER = Tracer()

if hasattr(os, "register_at_fork"):  # platforms with fork()
    os.register_at_fork(after_in_child=_TRACER._reset_in_forked_child)


def tracer() -> Tracer:
    return _TRACER


def span(name: str, **attrs: Any):
    return _TRACER.span(name, **attrs)


def current_context() -> Optional[Dict[str, str]]:
    return _TRACER.current_context()


def activate_context(ctx: Optional[Dict[str, str]]):
    return _TRACER.activate_context(ctx)


def drain() -> List[Dict[str, Any]]:
    return _TRACER.drain()


def ingest(spans: Iterable[Dict[str, Any]]) -> int:
    return _TRACER.ingest(spans)


def snapshot() -> List[Dict[str, Any]]:
    return _TRACER.snapshot()


def clear() -> None:
    _TRACER.clear()


class _Activation:
    __slots__ = ("_tracer", "_context", "_token")

    def __init__(self, tracer: Tracer, context: Tuple[str, str]) -> None:
        self._tracer = tracer
        self._context = context
        self._token = None

    def __enter__(self) -> None:
        self._token = self._tracer._current.set(self._context)
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._current.reset(self._token)


class _NullActivation:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


# -- exporters ----------------------------------------------------------


def export_ndjson(spans: Iterable[Dict[str, Any]], path=None) -> str:
    """Serialize spans one-JSON-object-per-line; write to *path* if given."""
    buffer = io.StringIO()
    for span_dict in spans:
        buffer.write(json.dumps(span_dict, sort_keys=True))
        buffer.write("\n")
    text = buffer.getvalue()
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def chrome_trace(spans: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Chrome trace-event JSON (``ph="X"`` complete events, Perfetto-loadable).

    Timestamps are the raw monotonic readings scaled to microseconds —
    absolute values are meaningless but *relative* values across processes
    share one clock, which is what the timeline view needs.
    """
    events: List[Dict[str, Any]] = []
    pids = {}
    for span_dict in spans:
        end = span_dict.get("end")
        start = span_dict["start"]
        duration_us = 0.0 if end is None else max(0.0, (end - start) * 1e6)
        args = dict(span_dict.get("attrs") or {})
        args["trace_id"] = span_dict["trace_id"]
        args["span_id"] = span_dict["span_id"]
        if span_dict.get("parent_id"):
            args["parent_id"] = span_dict["parent_id"]
        pid = span_dict["pid"]
        if pid not in pids:
            pids[pid] = span_dict.get("attrs", {}).get("proc") or f"pid {pid}"
        events.append(
            {
                "name": span_dict["name"],
                "cat": span_dict["name"].split(".", 1)[0],
                "ph": "X",
                "ts": start * 1e6,
                "dur": duration_us,
                "pid": pid,
                "tid": span_dict["tid"],
                "args": args,
            }
        )
    for pid, label in sorted(pids.items()):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_chrome_trace(spans: Iterable[Dict[str, Any]], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(spans), handle, sort_keys=True)


def _duration(span_dict: Dict[str, Any]) -> float:
    end = span_dict.get("end")
    return 0.0 if end is None else max(0.0, end - span_dict["start"])


def summarize(spans: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Aggregate spans by name: count, total and self-exclusive duration.

    ``seconds`` sums the spans' durations.  ``self_seconds`` sums each span's
    duration minus the durations of its direct children (matched by
    ``parent_id``), so the self times of all spans add up to the durations of
    the spans whose parent is not among them.  Children that run concurrently
    can make a self time negative.
    """
    spans = list(spans)
    child_seconds: Dict[str, float] = {}
    for span_dict in spans:
        parent_id = span_dict.get("parent_id")
        if parent_id is not None:
            child_seconds[parent_id] = (
                child_seconds.get(parent_id, 0.0) + _duration(span_dict)
            )
    totals: Dict[str, Dict[str, Any]] = {}
    for span_dict in spans:
        duration = _duration(span_dict)
        row = totals.setdefault(
            span_dict["name"],
            {
                "name": span_dict["name"],
                "count": 0,
                "seconds": 0.0,
                "self_seconds": 0.0,
            },
        )
        row["count"] += 1
        row["seconds"] += duration
        row["self_seconds"] += duration - child_seconds.get(span_dict["span_id"], 0.0)
    return sorted(totals.values(), key=lambda row: (-row["seconds"], row["name"]))
