"""Statistics, digests and memory readings shared by the workloads."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
#: The program's float sums follow set iteration order, so the last bit of a
#: plan cost depends on string hashing.  Every benchmark process and the
#: recording run use this hash seed, so recorded frontiers compare exactly.
HASH_SEED = "0"
#: Nominal time of one :func:`calibration_pass` (its typical time on an idle
#: 2-vCPU x86-64 VM under CPython 3.11).  Reported times are scaled to it.
CALIBRATION_NOMINAL_S = 0.012
#: Standard-library modules :func:`startup_pass` imports in a fresh process ...
STARTUP_IMPORTS = (
    "argparse, asyncio, dataclasses, decimal, email.mime.text, http.client, "
    "json, statistics, unittest, xml.dom.minidom"
)
#: ... and its typical time on the same idle VM.
STARTUP_NOMINAL_S = 0.10


def calibration_pass(iterations: int = 40000) -> float:
    """Seconds taken by a fixed pure-Python loop (dicts, tuples, sorts, floats).

    The loop touches nothing of the program, so a change to the program
    cannot move it; only the host's speed does.
    """
    started = time.perf_counter()
    table: Dict[int, float] = {}
    rows: List[Tuple[int, int]] = []
    total = 0.0
    for index in range(iterations):
        key = (index * 7919) % 1021
        table[key] = table.get(key, 0.0) + index * 0.5
        rows.append((key, index & 255))
        if len(rows) > 64:
            rows.sort()
            total += rows[32][0] / (1 + rows[0][1])
            del rows[16:]
    return time.perf_counter() - started


def host_slowness(passes: int = 3) -> float:
    """How much slower than nominal the host runs right now (1.0 = nominal).

    The host's speed drifts by up to 2x within seconds (other tenants share
    its cores), and the program slows with it.  Every reported time but
    set-up is divided by the mean slowness measured just before and just
    after the work it times, which cancels the drift and leaves the
    program's own speed.  Garbage is collected first, so the loop never
    pays for collecting cycles the program left behind.
    """
    gc.collect()
    return statistics.median(calibration_pass() for _ in range(passes)) / CALIBRATION_NOMINAL_S


def startup_pass() -> float:
    """Seconds a fresh interpreter takes to start and import ``STARTUP_IMPORTS``."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {STARTUP_IMPORTS}"], check=True)
    return time.perf_counter() - started


def startup_slowness() -> float:
    """How much slower than nominal a process starts right now (1.0 = nominal).

    Set-up is mostly process start and imports, and those slow down less
    under load than :func:`calibration_pass` does: on a 2-vCPU VM, when the
    loop ran 2x slower, set-up ran 1.4x slower, so scaling set-up by
    :func:`host_slowness` read it 21% lower on a loaded host than on an
    idle one.  A stdlib-only process start slows like set-up does (set-up
    over this reference stayed within 4% between the two states), and it
    touches nothing of the program either.
    """
    return startup_pass() / STARTUP_NOMINAL_S


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linearly interpolated percentile (``fraction`` in [0, 1])."""
    if not values:
        return math.nan
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])


def kind_percentile(samples: Iterable[Tuple[str, float]], fraction: float) -> float:
    """Percentile of ``(kind, value)`` samples taken per kind, averaged over kinds.

    Query kinds differ in cost by up to 10x, so a percentile of the pooled
    samples falls into the gap between two kinds and jumps when a time-boxed
    run holds one more session of either.  The geometric mean over kinds of
    each kind's percentile weighs every kind the same and moves smoothly.
    """
    by_kind: Dict[str, List[float]] = defaultdict(list)
    for kind, value in samples:
        by_kind[kind].append(value)
    if not by_kind:
        return math.nan
    logs = [math.log(percentile(values, fraction)) for values in by_kind.values()]
    return math.exp(statistics.fmean(logs))


def frontier_digest(plans) -> str:
    """Digest of a frontier of ``PlanSummary`` objects, exact to the bit."""
    rows = [
        [
            list(plan.tables),
            [float(value).hex() for value in plan.cost],
            plan.operator,
            plan.render,
            plan.interesting_order,
            plan.depth,
        ]
        for plan in plans
    ]
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size in MiB of this process or of ``pid``."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
