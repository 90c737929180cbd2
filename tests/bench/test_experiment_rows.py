"""Every registered experiment reproduces its pinned deterministic columns.

The fixture (see :mod:`tests.bench.experiment_rows_capture`) holds, per
registered experiment at tiny scale, the description and every row without
its timing and host columns.  A rerun must give the same rows in the same
order with the same column order, on either kernel backend.
"""

from __future__ import annotations

import json

import pytest

from repro import kernel
from repro.bench.registry import registered_names
from tests.bench.experiment_rows_capture import FIXTURE_PATH, capture

try:
    import numpy  # noqa: F401

    BACKENDS = ("python", "numpy")
except ImportError:  # pragma: no cover - numpy ships in the dev env
    BACKENDS = ("python",)

FIXTURE = json.loads(FIXTURE_PATH.read_text())


def test_fixture_covers_every_registered_experiment():
    assert sorted(FIXTURE) == registered_names()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(FIXTURE))
def test_rows_match_the_fixture(name, backend):
    with kernel.use_backend(backend):
        captured = capture(name)
    frozen = FIXTURE[name]
    assert captured["description"] == frozen["description"]
    assert captured["rows"] == frozen["rows"]
    assert [list(row) for row in captured["rows"]] == [
        list(row) for row in frozen["rows"]
    ], f"{name}: column order diverged"
