"""Byte-stability of the rendered ``results/*`` targets.

Every output surface of a registered experiment -- the text report *and* any
extra machine-readable artifact a spec registers (the ablation harness's
``ablation_features.json``) -- must be a pure function of the experiment's
rows: rendering one result twice is byte-identical, so the only differences
between two runs' files are the differences between their rows.
"""

from __future__ import annotations

import pytest

from repro.bench.config import tiny_config
from repro.bench.export import render_text_report
from repro.bench.registry import get_spec, registered_names


def _render_all(spec, result, directory):
    """Every output surface of a spec: the text report + extra artifacts."""
    sections = tuple(fmt(result) for fmt in spec.section_formatters)
    outputs = {f"{result.name}.txt": render_text_report(result, sections)}
    for artifact in spec.artifacts:
        path = artifact(result, directory)
        outputs[path.name] = path.read_text()
    return outputs


@pytest.mark.parametrize("name", registered_names())
def test_rendering_is_byte_identical(name, tmp_path):
    spec = get_spec(name)
    result = spec.run(tiny_config())
    first = _render_all(spec, result, tmp_path / "first")
    # Reports are written as results/<result name>.txt: the experiment's
    # result must carry the name it is registered under.
    assert f"{name}.txt" in first

    second = _render_all(spec, result, tmp_path / "second")
    assert second.keys() == first.keys()
    for filename in first:
        assert second[filename] == first[filename], (
            f"{name}: {filename} is not byte-stable across renders"
        )

