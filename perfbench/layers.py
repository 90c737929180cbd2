"""Per-layer self time, measured from outside the program.

The traced run wraps public functions of each layer with timing wrappers
installed from this file; nothing in the program changes.  Each wrapper
pushes a frame on a per-thread stack, so a layer's *self* time is its wall
time minus the wall time of wrapped calls made inside it.  The benchmark
opens a root frame around every session; the root's self time is ``other``,
so the self times of all layers plus ``other`` add up to the session wall
time exactly.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

OTHER = "other"


def _rows_of_columns(args, kwargs) -> int:
    columns = args[0] if args else kwargs.get("columns")
    return len(columns[0]) if columns else 0


def _rows_of_take(args, kwargs) -> int:
    return len(args[1] if len(args) > 1 else kwargs["indices"])


def _rows_of_combine(args, kwargs) -> int:
    return len(args[1] if len(args) > 1 else kwargs["left"])


#: Kernel operations of the active backend and how many rows each call covers.
KERNEL_OPS: Dict[str, Callable] = {
    "first_leq": _rows_of_columns,
    "any_leq": _rows_of_columns,
    "leq_slots": _rows_of_columns,
    "geq_slots": _rows_of_columns,
    "pareto_mask": _rows_of_columns,
    "scale_columns": _rows_of_columns,
    "take": _rows_of_take,
    "combine_columns": _rows_of_combine,
}


class LayerClock:
    """Self time, calls and (optionally) per-call durations per layer."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []
        self.reset()

    def reset(self) -> None:
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.rows: Counter = Counter()
        self.durations: Dict[str, List[float]] = defaultdict(list)

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, layer: str, started: float, stack: list, keep: bool, rows: int) -> None:
        elapsed = time.perf_counter() - started
        children = stack.pop()
        if stack:
            stack[-1] += elapsed
        with self._lock:
            self.self_seconds[layer] += elapsed - children
            self.calls[layer] += 1
            self.rows[layer] += rows
            if keep:
                self.durations[layer].append(elapsed)

    @contextmanager
    def frame(self, layer: str = OTHER, keep: bool = False):
        """Time a block as one call of ``layer`` (the session root by default)."""
        stack = self._stack()
        stack.append(0.0)
        started = time.perf_counter()
        try:
            yield
        finally:
            self._close(layer, started, stack, keep, 0)

    def wrap(
        self,
        owner,
        attribute: str,
        layer: str,
        rows: Optional[Callable] = None,
        keep: bool = False,
    ) -> None:
        """Replace ``owner.attribute`` with a timing wrapper until :meth:`uninstall`."""
        original = getattr(owner, attribute)
        clock = self

        def wrapper(*args, **kwargs):
            stack = clock._stack()
            stack.append(0.0)
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                clock._close(
                    layer, started, stack, keep, rows(args, kwargs) if rows else 0
                )

        wrapper.__wrapped__ = original
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self_seconds": dict(self.self_seconds),
                "calls": dict(self.calls),
                "rows": dict(self.rows),
            }

    def merge(self, snapshot: dict) -> None:
        with self._lock:
            for layer, seconds in snapshot["self_seconds"].items():
                self.self_seconds[layer] += seconds
            self.calls.update(snapshot["calls"])
            self.rows.update(snapshot["rows"])


def install_core_layers(clock: LayerClock) -> None:
    """Wrap the optimizer, plan factory and kernel layers."""
    from repro import kernel
    from repro.core import optimizer as core_optimizer
    from repro.core.index import PlanIndex
    from repro.core.optimizer import IncrementalOptimizer
    from repro.plans.factory import PlanFactory

    clock.wrap(IncrementalOptimizer, "optimize", "core.optimize", keep=True)
    clock.wrap(core_optimizer, "prune_all_ids", "core.prune")
    clock.wrap(PlanIndex, "insert_id", "core.index")
    clock.wrap(PlanIndex, "remove_id", "core.index")
    clock.wrap(PlanIndex, "retrieve_ids", "core.retrieve")
    clock.wrap(PlanFactory, "combine_block", "plans.combine")
    for name, rows in KERNEL_OPS.items():
        clock.wrap(kernel.ops, name, "kernel", rows=rows)


def install_api_layers(clock: LayerClock) -> None:
    """Wrap the session API and workload resolution."""
    from repro.api import request as api_request
    from repro.api import session as api_session
    from repro.api.session import PlannerSession

    clock.wrap(api_request, "resolve_workload", "workloads.resolve", keep=True)
    clock.wrap(api_session, "open_session", "api.open", keep=True)
    clock.wrap(PlannerSession, "advance", "api.advance", keep=True)
    clock.wrap(PlannerSession, "apply", "api.apply")


def install_service_layers(clock: LayerClock, dump_dir: Path) -> None:
    """Wrap the pool front process and make every shard dump its own clock.

    Shards fork from the front process after the wrappers are installed, so
    they inherit them; each shard starts from an empty clock and writes it
    to ``dump_dir`` when it shuts down.
    """
    from repro.api import request as api_request
    from repro.service import shard as service_shard
    from repro.service.shard import WorkerPoolService

    clock.wrap(api_request, "resolve_workload", "workloads.resolve", keep=True)
    clock.wrap(WorkerPoolService, "submit", "service.submit", keep=True)
    original = service_shard.shard_main

    def traced_shard_main(*args, **kwargs):
        clock.reset()
        try:
            return original(*args, **kwargs)
        finally:
            path = dump_dir / f"shard-{os.getpid()}.json"
            path.write_text(json.dumps(clock.snapshot()))

    clock._patches.append((service_shard, "shard_main", original))
    service_shard.shard_main = traced_shard_main


def read_shard_dumps(dump_dir: Path) -> List[dict]:
    return [json.loads(path.read_text()) for path in sorted(dump_dir.glob("shard-*.json"))]
