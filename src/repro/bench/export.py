"""Export of experiment results to CSV, JSON and Markdown.

The benchmark targets persist plain-text tables; downstream users (plotting
scripts, papers, dashboards) usually want machine-readable data instead.  This
module converts :class:`~repro.bench.experiments.ExperimentResult` rows into

* CSV (one row per measurement, columns = union of row keys),
* JSON (name, description, rows),
* Markdown tables (for inclusion in reports).

All writers are pure functions from results to strings plus thin ``write_*``
helpers; nothing here imports the optimizer, so exporting never perturbs
measurements.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

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
# Markdown
# ----------------------------------------------------------------------
def to_markdown(
    result: ExperimentResult,
    columns: Optional[Sequence[str]] = None,
    float_format: str = "{:.4g}",
) -> str:
    """Render the result rows as a GitHub-flavoured Markdown table."""
    if not result.rows:
        return f"*{result.name}: no rows*"
    columns = list(columns) if columns is not None else _ordered_columns(result)
    lines = [
        "| " + " | ".join(columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in result.rows:
        cells = []
        for key in columns:
            value = row.get(key, "")
            if isinstance(value, float):
                cells.append(float_format.format(value))
            else:
                cells.append(str(value))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def write_markdown(result: ExperimentResult, path: PathLike) -> Path:
    """Write a Markdown section (heading, description, table) to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    content = "\n".join(
        [f"## {result.name}", "", result.description, "", to_markdown(result), ""]
    )
    path.write_text(content)
    return path


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


# ----------------------------------------------------------------------
# Bundles
# ----------------------------------------------------------------------
def export_all(
    results: Iterable[ExperimentResult],
    directory: PathLike,
    formats: Sequence[str] = ("csv", "json"),
) -> Dict[str, List[Path]]:
    """Export several results into ``directory`` in the requested formats.

    Returns ``{format: [written paths]}``.  Unknown format names raise.
    """
    writers = {"csv": write_csv, "json": write_json, "markdown": write_markdown}
    unknown = [fmt for fmt in formats if fmt not in writers]
    if unknown:
        raise ValueError(f"unknown export formats {unknown}; expected {sorted(writers)}")
    directory = Path(directory)
    written: Dict[str, List[Path]] = {fmt: [] for fmt in formats}
    suffix = {"csv": ".csv", "json": ".json", "markdown": ".md"}
    for result in results:
        for fmt in formats:
            path = directory / f"{result.name}{suffix[fmt]}"
            written[fmt].append(writers[fmt](result, path))
    return written
