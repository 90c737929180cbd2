"""Cross-request frontier cache: serve repeat requests, warm-start refinement.

The paper's anytime loop makes optimization state *reusable*: the frontier
after ``k`` invocations is a deterministic function of the request (workload,
algorithm, metrics, levels, precision, initial bounds) and ``k`` alone.  The
planning service exploits that in two ways:

* **Replay (hit).**  If a cached run of the same request fingerprint already
  executed at least as many invocations as the incoming budget admits, the
  serial stopping point is *computed* from the cached precision trace
  (:func:`serial_stop`) and the answer is assembled from the cached frontier
  updates — zero optimizer invocations run, and the frontier is bit-identical
  to running the request from scratch.
* **Warm start.**  If the incoming budget admits *more* work than the cached
  run performed and the finished session was parked (budget-finished, never
  steered), the cached prefix is replayed and the parked session is resumed
  (:meth:`~repro.api.session.PlannerSession.resume`), so only the missing
  invocations are computed.  Because the incremental optimizer's state after
  ``k`` invocations is exactly the state a fresh run reaches after the same
  ``k`` invocations, the combined result is again bit-identical to a cold run.

Requests whose own :class:`~repro.api.request.Budget` carries a wall-clock
deadline bypass the cache — their stopping point is timing-dependent, so no
deterministic replay exists (the service still *records* their prefix, which
is a valid deterministic trace regardless of why it stopped).

Keys are content digests (:func:`content_digest`) over the canonical
workload fingerprint (:func:`repro.workloads.generator.workload_fingerprint`
for generated specs) crossed with everything else that determines the
invocation sequence.  Entries live in an LRU bounded by a byte budget
(frontier payload bytes plus parked arena bytes) and can optionally persist
through an atomic one-file-per-key :class:`JsonStore`.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.api.request import Budget, ResolvedRequest
from repro.api.schema import (
    FINISH_EXHAUSTED,
    FINISH_INVOCATION_CAP,
    FINISH_TARGET_ALPHA,
    cost_to_jsonable,
)
from repro.api.session import PlannerSession
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.service.protocol import CACHE_HIT, CACHE_MISS, CACHE_WARM
from repro.workloads.spec import canonical_spec_id

#: Bump when the persisted entry layout changes incompatibly.
FRONTIER_CACHE_VERSION = 1

#: Disk namespace under the persist directory.
_DISK_NAMESPACE = "frontiers"

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# Canonicalization and content digests
# ----------------------------------------------------------------------
def canonicalize(obj: object) -> object:
    """Reduce an object tree to JSON-compatible data, deterministically.

    Dataclasses and plain objects are expanded field by field (tagged with the
    class name so that differently-typed but equal-valued configurations do not
    collide); containers recurse; enums use their value.  The output contains
    no memory addresses or hash-order dependence, so it is stable across
    processes and Python invocations -- the property the cache keying relies on.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: canonicalize(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__class__": type(obj).__name__, **fields}
    if isinstance(obj, enum.Enum):
        return canonicalize(obj.value)
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, dict):
        return {
            str(key): canonicalize(value)
            for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    state = getattr(obj, "__dict__", None)
    if state:
        return {
            "__class__": type(obj).__name__,
            **{k: canonicalize(v) for k, v in sorted(state.items())},
        }
    return {"__class__": type(obj).__name__}


def _digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def content_digest(obj: object) -> str:
    """SHA-256 over the canonical JSON form of an arbitrary object tree.

    The content-addressing primitive behind the cache's request keys (see
    :func:`request_fingerprint`).
    """
    return _digest(canonicalize(obj))


def config_fingerprint(config) -> str:
    """Stable hex fingerprint of an experiment configuration."""
    return content_digest(config)


# ----------------------------------------------------------------------
# The persistent tier
# ----------------------------------------------------------------------
class JsonStore:
    """One-JSON-file-per-key store with atomic writes under one root directory.

    The cache's raw persistence layer: finished frontiers persist through
    one, and every shard of a worker pool shares the same directory.  Keys
    are relative paths (``<namespace>/<hexdigest>.json``); writes go through a
    temp file plus ``os.replace`` so concurrent writers sharing a directory at
    worst waste a recomputation, never corrupt an entry.
    """

    def __init__(self, root: PathLike):
        self._root = Path(root)

    @property
    def root(self) -> Path:
        return self._root

    def path_for(self, relative: PathLike) -> Path:
        return self._root / relative

    def load(self, relative: PathLike) -> Optional[dict]:
        """The stored entry, or ``None`` on miss or corruption."""
        try:
            entry = json.loads(self.path_for(relative).read_text())
        except (OSError, ValueError):
            return None
        return entry if isinstance(entry, dict) else None

    def store(self, relative: PathLike, entry: dict) -> Path:
        """Atomically persist one entry; returns the entry path."""
        path = self.path_for(relative)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.stem, suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w") as handle:
                # No sort_keys: the entry's key order is data and must
                # survive the round trip unchanged.
                json.dump(entry, handle, indent=2)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def entries(self, pattern: str = "*/*.json") -> List[Path]:
        """All entry files currently on disk matching ``pattern``."""
        if not self._root.exists():
            return []
        return sorted(self._root.glob(pattern))

    def __len__(self) -> int:
        return len(self.entries())


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def canonical_workload_id(resolved: ResolvedRequest) -> str:
    """A spelling-independent identifier of the resolved workload.

    Delegates to :func:`repro.workloads.spec.canonical_spec_id`: generated
    and ``sql:``/``template:`` specs are identified by the full
    :func:`workload_fingerprint` — the digest over schema, statistics and
    join predicates, stable across processes — computed over the *already
    resolved* query and statistics (submit is a hot path; the workload is
    never regenerated just to fingerprint it).  TPC-H specs (``q03`` == ``tpch:q03`` ==
    ``tpch_q03``) are identified by the resolved block name plus the
    statistics scale factor.
    """
    return canonical_spec_id(
        resolved.request.workload,
        resolved.query,
        resolved.statistics,
        resolved.config.tpch_scale_factor,
    )


def request_fingerprint(resolved: ResolvedRequest, algorithm: str) -> str:
    """Content digest over everything that determines the invocation sequence.

    ``algorithm`` is the planner name.  The request budget is deliberately
    excluded: the budget decides where the deterministic sequence *stops*,
    not what it computes, so one cache entry answers every budget of the same
    request.
    """
    return content_digest(
        {
            "workload": canonical_workload_id(resolved),
            "algorithm": algorithm,
            "metrics": list(resolved.metric_set.names),
            "levels": resolved.request.levels,
            "precision": resolved.request.precision,
            "bounds": cost_to_jsonable(resolved.bounds),
            "objective": resolved.request.objective,
            "config": config_fingerprint(resolved.config),
        }
    )


# ----------------------------------------------------------------------
# The serial stopping rule
# ----------------------------------------------------------------------
def serial_stop(
    alphas: List[float],
    refines: bool,
    levels: int,
    budget: Budget,
) -> Optional[Tuple[int, str]]:
    """Where a fresh, never-steered session under ``budget`` would stop.

    Given the cached precision trace (``alphas[i]`` = precision factor of
    invocation ``i + 1``), returns ``(invocations_executed, finish_reason)``
    if the stopping point falls inside the trace, or ``None`` if a serial run
    would execute beyond it.  Mirrors the exact check order of
    :meth:`PlannerSession.apply`: exhaustion (the refinement sweep completing)
    takes precedence over the budget, then the invocation cap, then the
    target-alpha limit.  Budgets with wall-clock deadlines must never reach
    this function — their stopping point is not a function of the trace.
    """
    if budget.deadline_seconds is not None:
        raise ValueError("serial_stop is undefined for wall-clock deadline budgets")
    exhaustion = levels if refines else 1
    for i in range(1, len(alphas) + 1):
        if i >= exhaustion:
            return i, FINISH_EXHAUSTED
        if budget.max_invocations is not None and i >= budget.max_invocations:
            return i, FINISH_INVOCATION_CAP
        if budget.target_alpha is not None and alphas[i - 1] <= budget.target_alpha:
            return i, FINISH_TARGET_ALPHA
    return None


# ----------------------------------------------------------------------
# Entries and decisions
# ----------------------------------------------------------------------
@dataclass
class CacheEntry:
    """One cached request: its deterministic trace plus an optional session.

    Byte accounting is split by tier: ``trace_bytes`` is the serialized size
    of the frontier-update trace (what the persistent tier stores) and
    ``arena_bytes`` is the parked session's current plan-arena footprint (the
    live tier).  Both are *charged* sizes — what the LRU budget currently
    holds the entry accountable for — and are refreshed by the cache whenever
    the entry's content changes (session parked/popped, trace extended), so a
    warm-start resume that grows the arena is re-charged at its grown size
    when the session is re-parked, never at its admission-time size.
    """

    key: str
    workload: str
    algorithm: str
    query_name: str
    table_count: int
    metric_names: Tuple[str, ...]
    levels: int
    refines: bool
    #: Precision factor of each cached invocation, in execution order.
    alphas: List[float]
    #: ``frontier_update`` payloads, one per cached invocation.
    updates: List[dict]
    #: Cumulative ``plans_generated`` after each cached invocation.
    plans_after: List[int]
    #: Parked live session for warm starts; ``None`` once popped or evicted.
    session: Optional[PlannerSession] = field(default=None, repr=False)
    #: Charged bytes of the serialized update trace (persistent tier).
    trace_bytes: int = 0
    #: Charged bytes of the parked session's plan arena (live tier).
    arena_bytes: int = 0

    @property
    def charged_bytes(self) -> int:
        """What the LRU byte budget currently charges this entry."""
        return self.trace_bytes + self.arena_bytes

    @property
    def invocations(self) -> int:
        return len(self.alphas)

    def result_payload(self, stop_index: int, finish_reason: str) -> dict:
        """Assemble the ``optimization_result`` payload of a replayed prefix."""
        if not 1 <= stop_index <= self.invocations:
            raise ValueError(
                f"stop index {stop_index} outside cached trace of "
                f"{self.invocations} invocations"
            )
        prefix = self.updates[:stop_index]
        invocations = [update["invocation"] for update in prefix]
        return {
            "schema_version": prefix[0]["schema_version"],
            "kind": "optimization_result",
            "algorithm": self.algorithm,
            "query": {"name": self.query_name, "table_count": self.table_count},
            "metrics": list(self.metric_names),
            "finish_reason": finish_reason,
            "total_seconds": sum(
                inv["duration_seconds"] for inv in invocations
            ),
            "plans_generated": self.plans_after[stop_index - 1],
            "invocations": invocations,
            "frontier": list(prefix[-1]["frontier"]),
            "selected_plan": None,
        }


@dataclass(frozen=True)
class Decision:
    """What the cache decided for one incoming request."""

    status: str                    # CACHE_HIT / CACHE_WARM / CACHE_MISS
    entry: Optional[CacheEntry] = None
    stop_index: int = 0            # hit: invocations the serial run executes
    finish_reason: Optional[str] = None
    session: Optional[PlannerSession] = None  # warm: the popped parked session


def _payload_bytes(updates: List[dict]) -> int:
    return sum(
        len(json.dumps(update, separators=(",", ":"))) for update in updates
    )


def _session_bytes(session: Optional[PlannerSession]) -> int:
    """The bytes of the arena a parked session's last frontier lives in.

    That is the factory's arena for IAMA, and the last run's scratch arena
    for a DP planner, whose factory arena stays empty.
    """
    if session is None:
        return 0
    plans = session.frontier_plans
    arena = plans[0].arena if plans else session.driver.factory.arena
    return arena.stats().approx_bytes


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class FrontierCache:
    """LRU frontier store with replay/warm-start decisions and gauges.

    Thread-safe: the planning service consults it from the submit path while
    scheduler workers record finished runs.
    """

    def __init__(
        self,
        max_bytes: int = 64 << 20,
        persist_dir: Optional[Path] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        self._max_bytes = max_bytes
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self._disk = JsonStore(persist_dir) if persist_dir is not None else None
        # Instruments (the registry is the source of truth; ``stats`` reads
        # them).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lookups = self.metrics.counter(
            "repro_cache_lookups_total",
            "Frontier-cache lookup decisions, by result",
            labelnames=("result",),
        )
        self._stores_counter = self.metrics.counter(
            "repro_cache_stores_total", "Finished traces recorded into the cache"
        )
        self._evictions_counter = self.metrics.counter(
            "repro_cache_evictions_total", "Entries evicted by the byte budget"
        )
        entries_gauge = self.metrics.gauge(
            "repro_cache_entries", "Resident frontier-cache entries"
        )
        entries_gauge.set_function(lambda: len(self._entries))
        bytes_gauge = self.metrics.gauge(
            "repro_cache_bytes_in_use", "Charged bytes across both cache tiers"
        )
        bytes_gauge.set_function(lambda: self._bytes)
        live_gauge = self.metrics.gauge(
            "repro_cache_live_sessions", "Parked warm-startable sessions"
        )
        live_gauge.set_function(self._count_live_sessions)

    def _count_live_sessions(self) -> int:
        with self._lock:
            return sum(
                1 for entry in self._entries.values() if entry.session is not None
            )

    # ------------------------------------------------------------------
    @property
    def max_bytes(self) -> int:
        return self._max_bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            live_sessions = sum(
                1 for entry in self._entries.values() if entry.session is not None
            )
            return {
                "entries": len(self._entries),
                "bytes_in_use": self._bytes,
                "max_bytes": self._max_bytes,
                # Two-tier gauges: the live tier is parked sessions (arena
                # resident, warm-startable), the persistent tier is replayable
                # traces (in memory and, when persistence is on, on disk).
                "live_sessions": live_sessions,
                "trace_bytes": sum(
                    entry.trace_bytes for entry in self._entries.values()
                ),
                "arena_bytes": sum(
                    entry.arena_bytes for entry in self._entries.values()
                ),
                "persistent": self._disk is not None,
                "hits": int(self._lookups.value(result=CACHE_HIT)),
                "warm_starts": int(self._lookups.value(result=CACHE_WARM)),
                "misses": int(self._lookups.value(result=CACHE_MISS)),
                "stores": int(self._stores_counter.value()),
                "evictions": int(self._evictions_counter.value()),
            }

    def audit(self) -> Dict[str, int]:
        """Recompute every entry's sizes and assert the charged accounting.

        Returns ``{"entries": n, "bytes_in_use": b}`` after verification;
        raises ``AssertionError`` when any entry's charged bytes diverge from
        its recomputed payload + arena size, or when the budget counter is not
        the sum of the charges.  Test/debug hook — never on the hot path.
        """
        with self._lock:
            total = 0
            for entry in self._entries.values():
                trace = _payload_bytes(entry.updates)
                arena = _session_bytes(entry.session)
                assert entry.trace_bytes == trace, (
                    f"{entry.key}: charged trace {entry.trace_bytes} != "
                    f"recomputed {trace}"
                )
                assert entry.arena_bytes == arena, (
                    f"{entry.key}: charged arena {entry.arena_bytes} != "
                    f"recomputed {arena} (stale admission-time size?)"
                )
                total += entry.charged_bytes
            assert self._bytes == total, (
                f"byte budget counter {self._bytes} != sum of charges {total}"
            )
            return {"entries": len(self._entries), "bytes_in_use": self._bytes}

    # ------------------------------------------------------------------
    def match(self, key: str, budget: Budget) -> Decision:
        """Decide how to serve a request with this fingerprint and budget.

        Replay beats warm start beats miss; gauges are bumped accordingly.  A
        warm decision *pops* the parked session — the caller owns it and is
        expected to re-record the extended trace when the resumed run ends.
        """
        with obs_trace.span("cache.lookup", key=key) as lookup_span:
            decision = self._match_locked(key, budget)
            lookup_span.set(status=decision.status)
            self._lookups.inc(result=decision.status)
            return decision

    def _match_locked(self, key: str, budget: Budget) -> Decision:
        with self._lock:
            entry = self._lookup_locked(key)
            if entry is None:
                return Decision(status=CACHE_MISS)
            stop = serial_stop(entry.alphas, entry.refines, entry.levels, budget)
            if stop is not None:
                stop_index, finish_reason = stop
                return Decision(
                    status=CACHE_HIT,
                    entry=entry,
                    stop_index=stop_index,
                    finish_reason=finish_reason,
                )
            if entry.session is not None:
                session = entry.session
                entry.session = None
                # The trace is unchanged, so its charged size stays; only the
                # live tier's arena charge is released with the popped session.
                self._bytes -= entry.arena_bytes
                entry.arena_bytes = 0
                return Decision(status=CACHE_WARM, entry=entry, session=session)
            return Decision(status=CACHE_MISS)

    def _lookup_locked(self, key: str) -> Optional[CacheEntry]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        if self._disk is None:
            return None
        stored = self._disk.load(Path(_DISK_NAMESPACE) / f"{key}.json")
        if (
            stored is None
            or stored.get("version") != FRONTIER_CACHE_VERSION
            or stored.get("key") != key
        ):
            return None
        entry = CacheEntry(
            key=key,
            workload=stored["workload"],
            algorithm=stored["algorithm"],
            query_name=stored["query_name"],
            table_count=int(stored["table_count"]),
            metric_names=tuple(stored["metric_names"]),
            levels=int(stored["levels"]),
            refines=bool(stored["refines"]),
            alphas=[float(a) for a in stored["alphas"]],
            updates=list(stored["updates"]),
            plans_after=[int(n) for n in stored["plans_after"]],
        )
        self._insert_locked(entry)
        return entry

    # ------------------------------------------------------------------
    def record(
        self,
        key: str,
        *,
        workload: str,
        algorithm: str,
        query_name: str,
        table_count: int,
        metric_names: Tuple[str, ...],
        levels: int,
        refines: bool,
        alphas: List[float],
        updates: List[dict],
        plans_after: List[int],
        session: Optional[PlannerSession] = None,
    ) -> Optional[CacheEntry]:
        """Record a finished, never-steered run (and optionally park its session).

        A shorter trace never replaces a longer one for the same key; an
        equally long trace adopts the parked session if the resident entry
        lost its own.  Returns the resident entry (or ``None`` when the trace
        was rejected or immediately evicted by the byte budget).
        """
        if not alphas or not (len(alphas) == len(updates) == len(plans_after)):
            raise ValueError("alphas, updates and plans_after must align and be non-empty")
        # Park only sessions that can accept further invocations: finished by
        # a budget limit (resumable) or not finished at all (a popped warm
        # session re-parked because admission failed).  Selection/exhaustion
        # is final — the trace is still worth caching, the session is not.
        if session is not None and session.finished and not session.resumable:
            session = None
        # Serialize once, outside the lock: the byte accounting reuses this
        # size, so concurrent match() calls never wait on JSON encoding.
        payload_size = _payload_bytes(updates)
        persist_entry: Optional[CacheEntry] = None
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                if existing.invocations > len(alphas):
                    return existing
                if existing.invocations == len(alphas):
                    if session is not None and existing.session is None:
                        # Re-park (e.g. a popped warm session bounced by
                        # admission control).  Charge the arena at its size
                        # *now* — a resumed session's arena may have grown
                        # since the entry was first admitted.
                        existing.session = session
                        self._charge_locked(existing, trace_bytes=payload_size)
                        self._entries.move_to_end(key)
                        self._evict_locked()
                    else:
                        self._entries.move_to_end(key)
                    return self._entries.get(key)
                self._remove_locked(key, count_eviction=False)
            entry = CacheEntry(
                key=key,
                workload=workload,
                algorithm=algorithm,
                query_name=query_name,
                table_count=table_count,
                metric_names=tuple(metric_names),
                levels=levels,
                refines=refines,
                alphas=list(alphas),
                updates=list(updates),
                plans_after=list(plans_after),
                session=session,
            )
            self._insert_locked(entry, payload_size=payload_size)
            self._stores_counter.inc()
            if self._disk is not None:
                persist_entry = entry
            resident = self._entries.get(key)
        # Disk persistence happens outside the lock: JsonStore's atomic
        # os.replace tolerates concurrent writers, and a slow disk must not
        # stall every concurrent match() on the submit hot path.
        if persist_entry is not None:
            self._persist(persist_entry)
        return resident

    def _charge_locked(
        self, entry: CacheEntry, trace_bytes: Optional[int] = None
    ) -> None:
        """(Re)measure one entry and update the budget counter by the delta.

        The single place charged sizes are written: both tiers are recomputed
        from the entry's *current* content, so no path can leave a stale
        admission-time size behind.  ``trace_bytes`` may be passed when the
        caller already serialized the trace (record() measures outside the
        lock to keep JSON encoding off the submit hot path).
        """
        if trace_bytes is None:
            trace_bytes = _payload_bytes(entry.updates)
        self._bytes -= entry.charged_bytes
        entry.trace_bytes = trace_bytes
        entry.arena_bytes = _session_bytes(entry.session)
        self._bytes += entry.charged_bytes

    def _insert_locked(
        self, entry: CacheEntry, payload_size: Optional[int] = None
    ) -> None:
        self._charge_locked(entry, trace_bytes=payload_size)
        self._entries[entry.key] = entry
        self._entries.move_to_end(entry.key)
        self._evict_locked()

    def _evict_locked(self) -> None:
        while self._bytes > self._max_bytes and self._entries:
            oldest = next(iter(self._entries))
            self._remove_locked(oldest, count_eviction=True)

    def _remove_locked(self, key: str, count_eviction: bool) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        self._bytes -= entry.charged_bytes
        entry.session = None
        if count_eviction:
            self._evictions_counter.inc()

    def flush(self) -> int:
        """Persist every resident trace to the disk tier; returns the count.

        A no-op (returning 0) without a persistence directory.  Called by the
        planning service on graceful shutdown so the persistent tier holds
        every trace the live tier accumulated, including entries adopted or
        extended since their last write.
        """
        if self._disk is None:
            return 0
        with self._lock:
            entries = list(self._entries.values())
        for entry in entries:
            self._persist(entry)
        return len(entries)

    def _persist(self, entry: CacheEntry) -> None:
        self._disk.store(
            Path(_DISK_NAMESPACE) / f"{entry.key}.json",
            {
                "version": FRONTIER_CACHE_VERSION,
                "key": entry.key,
                "workload": entry.workload,
                "algorithm": entry.algorithm,
                "query_name": entry.query_name,
                "table_count": entry.table_count,
                "metric_names": list(entry.metric_names),
                "levels": entry.levels,
                "refines": entry.refines,
                "alphas": entry.alphas,
                "updates": entry.updates,
                "plans_after": entry.plans_after,
            },
        )
