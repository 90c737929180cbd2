"""Frozen deterministic columns of every registered experiment.

``capture(name)`` runs one registered experiment at
:func:`repro.bench.config.tiny_config` and returns its description and rows
with the timings a rerun cannot reproduce dropped: every key containing
``seconds`` or ``speedup``.  What is left -- frontier sizes, plan and pair
counts, bounds, digests -- is a pure function of the configuration.  Every
row keeps its key order, which is the column order of the text reports.

``tests/bench/experiment_rows_tiny.json`` was captured when every
experiment still ran as cells merged by a scheduler, before each became one
function; ``tests/bench/test_experiment_rows.py`` asserts that every
registered experiment reproduces it, rows and column order, on every kernel
backend.
``python -m tests.bench.experiment_rows_capture`` rewrites the file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

FIXTURE_PATH = Path(__file__).resolve().parent / "experiment_rows_tiny.json"


def is_pinned(column: str) -> bool:
    """Whether a column is deterministic (and so pinned by the fixture)."""
    return "seconds" not in column and "speedup" not in column


def capture(name: str) -> Dict:
    """The deterministic columns of one registered experiment at tiny scale."""
    from repro.bench.config import tiny_config
    from repro.bench.registry import get_spec

    result = get_spec(name).run(tiny_config())
    captured = {
        "description": result.description,
        "rows": [
            {key: value for key, value in row.items() if is_pinned(key)}
            for row in result.rows
        ],
    }
    # The JSON round trip the fixture went through (tuples become lists).
    return json.loads(json.dumps(captured))


def main() -> None:
    from repro.bench.registry import registered_names

    fixture = {name: capture(name) for name in registered_names()}
    FIXTURE_PATH.write_text(json.dumps(fixture, indent=1) + "\n")
    rows = sum(len(entry["rows"]) for entry in fixture.values())
    print(f"wrote {len(fixture)} experiments and {rows} rows to {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
