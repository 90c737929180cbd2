"""Machine-readable performance trajectory of the benchmark runs.

Every benchmark run appends its headline numbers to a JSON file at the
repository root -- ``BENCH_service.json`` for the serving-tier experiments,
``BENCH_kernel.json`` for everything else -- so the performance history of
the repository is greppable and plottable across commits without parsing the
human-oriented ``results/*.txt`` tables.

Each entry is a flat dict::

    {"experiment": "kernel_dominance",
     "backend":    "numpy",
     "metric":     "size=4096:pareto_seconds",
     "value":      0.000333,
     "cpu_count":  8}

``metric`` carries the row context (block size, worker count, phase, ...) as
a ``k=v,...:`` prefix in front of the measured column name, so consumers can
filter without a schema.  Non-finite values are skipped -- a benchmark that
failed to produce a number never poisons the trajectory.

The file is a single JSON array, rewritten atomically on every append
(read-modify-write through a temp file + ``os.replace``), so a crashed run
cannot leave a truncated file behind.  Set ``REPRO_BENCH_TRAJECTORY_DIR`` to
redirect the output (the test suite points it at a tmpdir).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

TRAJECTORY_DIR_ENV_VAR = "REPRO_BENCH_TRAJECTORY_DIR"

#: Experiments whose name contains one of these route to the service file.
_SERVICE_MARKERS = ("service", "trace", "pool", "shard")

#: Row keys treated as context (encoded into the metric prefix) rather than
#: as measured values, even though they are numeric.
CONTEXT_KEYS = ("size", "workers", "phase", "topology", "tables", "policy")


def trajectory_dir() -> Path:
    """Directory holding the BENCH_*.json files (repo root by default)."""
    override = os.environ.get(TRAJECTORY_DIR_ENV_VAR, "").strip()
    if override:
        return Path(override)
    # src/repro/bench/trajectory.py -> repository root three levels up.
    return Path(__file__).resolve().parents[3]


def trajectory_path(experiment: str) -> Path:
    """The BENCH file an experiment's entries are routed to."""
    name = experiment.lower()
    bucket = (
        "BENCH_service.json"
        if any(marker in name for marker in _SERVICE_MARKERS)
        else "BENCH_kernel.json"
    )
    return trajectory_dir() / bucket


def load(path: Path) -> List[dict]:
    """The entries currently recorded in a trajectory file ([] if absent)."""
    try:
        raw = path.read_text()
    except FileNotFoundError:
        return []
    if not raw.strip():
        return []
    data = json.loads(raw)
    if not isinstance(data, list):
        raise ValueError(f"{path}: trajectory file must hold a JSON array")
    return data


def _write_atomic(path: Path, entries: List[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(entries, handle, indent=0)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def append(
    experiment: str,
    metric: str,
    value: float,
    backend: str = "",
    cpu_count: Optional[int] = None,
) -> Optional[Path]:
    """Append one measurement; returns the file written (None if skipped).

    Non-finite and non-numeric values are silently skipped so callers can
    feed raw row dicts without pre-filtering.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if not math.isfinite(value):
        return None
    path = trajectory_path(experiment)
    entries = load(path)
    entries.append(
        {
            "experiment": experiment,
            "backend": backend,
            "metric": metric,
            "value": value,
            "cpu_count": int(cpu_count if cpu_count else os.cpu_count() or 1),
        }
    )
    _write_atomic(path, entries)
    return path


def _context_prefix(row: Dict[str, object]) -> str:
    parts = [
        f"{key}={row[key]}"
        for key in CONTEXT_KEYS
        if key in row and not isinstance(row[key], float)
    ]
    return ",".join(parts) + ":" if parts else ""


def append_rows(
    experiment: str,
    rows: Iterable[Dict[str, object]],
    value_keys: Optional[Sequence[str]] = None,
) -> Optional[Path]:
    """Append every float-valued column of the given rows in one rewrite.

    ``value_keys`` restricts which columns are recorded; by default every
    float column that is not a context key is taken.  The row's ``backend``
    column (if any) fills the entry's backend field.
    """
    path: Optional[Path] = None
    new: List[dict] = []
    cpus = os.cpu_count() or 1
    for row in rows:
        prefix = _context_prefix(row)
        backend = str(row.get("backend", ""))
        keys = value_keys if value_keys is not None else list(row)
        for key in keys:
            if key in CONTEXT_KEYS or key == "backend":
                continue
            value = row.get(key)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if not math.isfinite(value):
                continue
            new.append(
                {
                    "experiment": experiment,
                    "backend": backend,
                    "metric": prefix + key,
                    "value": float(value),
                    "cpu_count": cpus,
                }
            )
    if not new:
        return None
    path = trajectory_path(experiment)
    entries = load(path)
    entries.extend(new)
    _write_atomic(path, entries)
    return path
