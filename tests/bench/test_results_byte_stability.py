"""Byte-stability of the rendered ``results/*.txt`` reports.

The text report of a registered experiment must be a pure function of the
experiment's rows: rendering one result twice is byte-identical, so the only
differences between two runs' files are the differences between their rows.
"""

from __future__ import annotations

import pytest

from repro.bench.config import tiny_config
from repro.bench.export import render_text_report
from repro.bench.registry import get_spec, registered_names


def _render(spec, result):
    """A spec's text report: the row dump plus its extra sections."""
    sections = tuple(fmt(result) for fmt in spec.section_formatters)
    return render_text_report(result, sections)


@pytest.mark.parametrize("name", registered_names())
def test_rendering_is_byte_identical(name):
    spec = get_spec(name)
    result = spec.run(tiny_config())
    # Reports are written as results/<result name>.txt: the experiment's
    # result must carry the name it is registered under.
    assert result.name == name
    assert _render(spec, result) == _render(spec, result), (
        f"{name}: {name}.txt is not byte-stable across renders"
    )
