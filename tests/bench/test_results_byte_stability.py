"""Byte-stability of registered ``results/*`` targets from a warm cache.

The PR-2 guarantee: once the cell cache is warm, regenerating a registered
experiment recomputes **zero** cells and renders byte-identical output,
regardless of ``--jobs`` and of completion order.  This suite extends the
guarantee to every output surface — the text report *and* any extra
machine-readable artifacts a spec registers (the ablation harness's
``ablation_features.json``) — for a representative set of experiments,
including the new ablation target.
"""

from __future__ import annotations

import pytest

from repro.bench.cache import ResultCache
from repro.bench.config import tiny_config
from repro.bench.export import render_text_report
from repro.bench.registry import get_spec
from repro.bench.scheduler import run_experiment

#: Representative registered targets: the ablation grid and one cheap
#: pre-existing spec per cell-family shape (series sweep, bespoke ablation).
TARGETS = (
    "ablation_features",
    "ablation_freshness",
    "metric_sweep",
)


def _render_all(spec, result, directory):
    """Every output surface of a spec: the text report + extra artifacts."""
    sections = tuple(fmt(result) for fmt in spec.section_formatters)
    outputs = {f"{spec.name}.txt": render_text_report(result, sections)}
    for artifact in spec.artifacts:
        path = artifact(result, directory)
        outputs[path.name] = path.read_text()
    return outputs


@pytest.mark.parametrize("name", TARGETS)
def test_warm_cache_regeneration_is_byte_identical(name, tmp_path):
    spec = get_spec(name)
    config = tiny_config()
    cache = ResultCache(tmp_path / "cache")

    cold = run_experiment(spec, config, jobs=1, cache=cache)
    assert cold.computed_cells == cold.total_cells and cold.cached_cells == 0
    first = _render_all(spec, cold.result, tmp_path / "first")

    # Warm rerun, parallel, resumed: zero cells recomputed ...
    warm = run_experiment(spec, config, jobs=2, cache=cache, resume=True)
    assert warm.computed_cells == 0, (
        f"{name}: warm rerun recomputed {warm.computed_cells} cells"
    )
    assert warm.cached_cells == cold.total_cells

    # ... and every output surface byte-identical to the cold render.
    second = _render_all(spec, warm.result, tmp_path / "second")
    assert second.keys() == first.keys()
    for filename in first:
        assert second[filename] == first[filename], (
            f"{name}: {filename} is not byte-stable across a warm rerun"
        )


def test_ablation_artifact_is_pure_in_the_rows(tmp_path):
    """The JSON artifact must be derived only from merged rows — rendering it
    twice from the same result object is byte-identical (no timestamps, no
    environment probes, no iteration-order dependence)."""
    from repro.bench.ablation import SPEC, ablation_json_payload

    config = tiny_config()
    cache = ResultCache(tmp_path / "cache")
    report = run_experiment(SPEC, config, jobs=2, cache=cache)
    once = ablation_json_payload(report.result)
    twice = ablation_json_payload(report.result)
    assert once == twice
    path_a = SPEC.artifacts[0](report.result, tmp_path / "a")
    path_b = SPEC.artifacts[0](report.result, tmp_path / "b")
    assert path_a.read_bytes() == path_b.read_bytes()
