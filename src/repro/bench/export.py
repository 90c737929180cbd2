"""Export of experiment results to CSV, JSON and plain-text reports.

The benchmark targets persist plain-text tables; downstream users (plotting
scripts, papers, dashboards) usually want machine-readable data instead.  This
module converts :class:`~repro.bench.experiments.ExperimentResult` rows into

* CSV (one row per measurement, columns = union of row keys),
* JSON (name, description, rows), readable back with :func:`load_json`,
* the ``results/<name>.txt`` reports.

All writers are pure functions from results to strings plus thin ``write_*``
helpers (the ones ``repro-moqo`` writes through); nothing here imports the
optimizer, so exporting never perturbs measurements.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.bench.experiments import ExperimentResult

PathLike = Union[str, Path]


def _ordered_columns(result: ExperimentResult) -> List[str]:
    """Union of row keys, ordered by first appearance."""
    columns: List[str] = []
    for row in result.rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------
def to_csv(result: ExperimentResult, columns: Optional[Sequence[str]] = None) -> str:
    """Render the result rows as CSV text (header + one line per row)."""
    columns = list(columns) if columns is not None else _ordered_columns(result)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, extrasaction="ignore")
    writer.writeheader()
    for row in result.rows:
        writer.writerow({key: row.get(key, "") for key in columns})
    return buffer.getvalue()


def write_csv(result: ExperimentResult, path: PathLike) -> Path:
    """Write :func:`to_csv` output to ``path`` and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_csv(result))
    return path


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------
def to_json(result: ExperimentResult, indent: int = 2) -> str:
    """Render the result (name, description, rows) as a JSON document."""
    payload = {
        "name": result.name,
        "description": result.description,
        "rows": result.rows,
    }
    return json.dumps(payload, indent=indent, default=_json_default)


def _json_default(value):
    """Fallback serializer for values JSON does not know (e.g. cost vectors)."""
    if hasattr(value, "values") and not isinstance(value, dict):
        try:
            return list(value.values)
        except TypeError:
            pass
    return str(value)


def write_json(result: ExperimentResult, path: PathLike) -> Path:
    """Write :func:`to_json` output to ``path`` and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_json(result))
    return path


def load_json(path: PathLike) -> ExperimentResult:
    """Load an experiment result previously written by :func:`write_json`."""
    payload = json.loads(Path(path).read_text())
    return ExperimentResult(
        name=payload["name"],
        description=payload.get("description", ""),
        rows=list(payload.get("rows", [])),
    )


# ----------------------------------------------------------------------
# Plain-text result reports (results/<name>.txt)
# ----------------------------------------------------------------------
def render_text_report(
    result: ExperimentResult,
    extra_sections: Sequence[str] = (),
) -> str:
    """The canonical ``results/<name>.txt`` content for an experiment.

    Layout: a heading, the description, any extra sections (e.g. the grouped
    figure-3/4/5 tables or a sweep pivot), then the generic row dump.  Both
    the pytest benchmark targets and ``repro-moqo bench`` write through this
    function, so both produce byte-identical files given identical rows.
    """
    from repro.bench.reporting import format_rows

    sections = [f"# {result.name}", result.description, ""]
    for section in extra_sections:
        sections.append(section)
        sections.append("")
    sections.append(format_rows(result))
    return "\n".join(sections) + "\n"


def write_text_report(
    result: ExperimentResult,
    directory: PathLike,
    extra_sections: Sequence[str] = (),
) -> Path:
    """Write :func:`render_text_report` to ``<directory>/<name>.txt``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{result.name}.txt"
    path.write_text(render_text_report(result, extra_sections))
    return path
