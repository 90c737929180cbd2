"""Metrics registry: counters / gauges / histograms + Prometheus text render.

The registry is deliberately *per-service*, not process-global: tests spin
up many transient ``PlanningService`` instances in one process, and a
global registry would trip duplicate-registration errors (or silently
aggregate across unrelated services).  Each service owns a
:class:`MetricsRegistry`; the sharded pool asks each shard for a
:meth:`MetricsRegistry.snapshot` over the pipe and renders the union with
a per-shard ``shard`` label via :func:`render_snapshots`.

Histogram bucket bounds are fixed at declaration time (no dynamic
resizing) so the exported series are deterministic across runs.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Default latency buckets (seconds) — spans invocation times from the
#: tiny unit-test workloads (~100us) up to multi-second bench sessions.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labelnames: Sequence[str], labels: Mapping[str, str]) -> _LabelKey:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared labelnames {sorted(labelnames)}"
        )
    return tuple((name, str(labels[name])) for name in labelnames)


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(pairs: Iterable[Tuple[str, str]]) -> str:
    items = [
        "{}=\"{}\"".format(
            name, value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        )
        for name, value in pairs
    ]
    return "{" + ",".join(items) + "}" if items else ""


class _Instrument:
    """Shared bookkeeping: name, help text, declared label names."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()


class Counter(_Instrument):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self._values: Dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._values.items())
            ]


class Gauge(_Instrument):
    """Point-in-time value; supports set/inc/dec and pull callbacks."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self._values: Dict[_LabelKey, float] = {}
        self._callbacks: Dict[_LabelKey, Callable[[], float]] = {}

    def set(self, value: float, **labels: str) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def set_function(self, callback: Callable[[], float], **labels: str) -> None:
        """Pull the value from *callback* at render/snapshot time."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._callbacks[key] = callback

    def value(self, **labels: str) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            callback = self._callbacks.get(key)
        if callback is not None:
            return float(callback())
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> List[Dict[str, Any]]:
        with self._lock:
            values = dict(self._values)
            callbacks = dict(self._callbacks)
        for key, callback in callbacks.items():
            values[key] = float(callback())
        return [
            {"labels": dict(key), "value": value}
            for key, value in sorted(values.items())
        ]


class Histogram(_Instrument):
    """Cumulative histogram with fixed, declaration-time bucket bounds."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly increasing")
        self.buckets = bounds
        self._series: Dict[_LabelKey, Dict[str, Any]] = {}

    def _series_for(self, key: _LabelKey) -> Dict[str, Any]:
        series = self._series.get(key)
        if series is None:
            series = {"counts": [0] * len(self.buckets), "sum": 0.0, "count": 0}
            self._series[key] = series
        return series

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            series = self._series_for(key)
            series["sum"] += value
            series["count"] += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    series["counts"][index] += 1

    def samples(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                {
                    "labels": dict(key),
                    "bucket_counts": list(series["counts"]),
                    "sum": series["sum"],
                    "count": series["count"],
                }
                for key, series in sorted(self._series.items())
            ]


class MetricsRegistry:
    """Ordered collection of instruments with render/snapshot surfaces."""

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help_text: str, **kwargs) -> Any:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            instrument = cls(name, help_text, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames=labelnames)

    def gauge(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames=labelnames)

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, labelnames=labelnames, buckets=buckets
        )

    def instruments(self) -> List[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    # -- serialization -------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON/pickle-safe dump of every instrument (for pipe transport)."""
        families = []
        for instrument in self.instruments():
            family: Dict[str, Any] = {
                "name": instrument.name,
                "kind": instrument.kind,
                "help": instrument.help,
                "labelnames": list(instrument.labelnames),
                "samples": instrument.samples(),
            }
            if isinstance(instrument, Histogram):
                family["buckets"] = list(instrument.buckets)
            families.append(family)
        return {"families": families}

    def render(self, extra_labels: Optional[Mapping[str, str]] = None) -> str:
        return render_snapshot(self.snapshot(), extra_labels)


def _render_family(lines: List[str], family: Mapping[str, Any], extra: Dict[str, str]) -> None:
    name = family["name"]
    lines.append(f"# HELP {name} {family['help']}")
    lines.append(f"# TYPE {name} {family['kind']}")
    extra_pairs = tuple(sorted(extra.items()))
    for sample in family["samples"]:
        base_pairs = extra_pairs + tuple(sorted(sample["labels"].items()))
        if family["kind"] == "histogram":
            cumulative = 0
            for bound, count in zip(family["buckets"], sample["bucket_counts"]):
                cumulative = count
                pairs = base_pairs + (("le", _format_value(bound)),)
                lines.append(f"{name}_bucket{_format_labels(pairs)} {cumulative}")
            pairs = base_pairs + (("le", "+Inf"),)
            lines.append(f"{name}_bucket{_format_labels(pairs)} {sample['count']}")
            lines.append(
                f"{name}_sum{_format_labels(base_pairs)} {_format_value(sample['sum'])}"
            )
            lines.append(f"{name}_count{_format_labels(base_pairs)} {sample['count']}")
        else:
            lines.append(
                f"{name}{_format_labels(base_pairs)} {_format_value(sample['value'])}"
            )


def render_snapshot(
    snapshot: Mapping[str, Any], extra_labels: Optional[Mapping[str, str]] = None
) -> str:
    """Prometheus text exposition for one registry snapshot."""
    lines: List[str] = []
    extra = dict(extra_labels or {})
    for family in snapshot["families"]:
        _render_family(lines, family, extra)
    return "\n".join(lines) + "\n" if lines else ""


def render_snapshots(
    labelled: Sequence[Tuple[Mapping[str, str], Mapping[str, Any]]]
) -> str:
    """Merge several ``(extra_labels, snapshot)`` pairs into one exposition.

    Families with the same name are emitted under one ``# HELP``/``# TYPE``
    header (Prometheus forbids duplicate headers), with each source's extra
    labels (e.g. ``shard="shard-0"``) distinguishing the series.
    """
    merged: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []
    for extra_labels, snapshot in labelled:
        extra = dict(extra_labels or {})
        for family in snapshot["families"]:
            name = family["name"]
            if name not in merged:
                merged[name] = {
                    "name": name,
                    "kind": family["kind"],
                    "help": family["help"],
                    "buckets": family.get("buckets"),
                    "sources": [],
                }
                order.append(name)
            elif merged[name]["kind"] != family["kind"]:
                raise ValueError(f"metric {name!r} has conflicting kinds across shards")
            merged[name]["sources"].append((extra, family))
    lines: List[str] = []
    for name in order:
        entry = merged[name]
        lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {entry['kind']}")
        for extra, family in entry["sources"]:
            header_done: List[str] = []
            _render_family(header_done, family, extra)
            # Drop the per-source HELP/TYPE lines; keep only the samples.
            lines.extend(header_done[2:])
    return "\n".join(lines) + "\n" if lines else ""
