"""A-features: the per-feature ablation grid over every stacked optimization.

Runs the registered ``ablation_features`` experiment (all-on baseline versus
one-feature-off configurations, core + kernel + service layers) and persists
both tracked artifacts:

* ``results/ablation_features.txt``  — the human attribution table,
* ``results/ablation_features.json`` — the machine-readable record the CI
  ablation gate validates (per-feature speedup attribution + frontier
  digests).

Expected shape: every ablated configuration's frontier digest equals the
all-on baseline (the bit-identity invariant), every declared work invariant
holds (Δ-sets off enumerates more pairs; frontier cache off recomputes the
warm phase), and the gate reports no violations.
"""

from benchmarks.conftest import RESULTS_DIR, persist_result
from repro.bench.ablation import (
    BASELINE_CONFIG,
    FEATURES,
    SPEC,
    ablation_json_payload,
    check_gate,
    write_ablation_json,
)
from repro.bench.reporting import format_rows


def test_ablation_features(benchmark, bench_config, result_cache):
    result = benchmark.pedantic(SPEC.run, args=(bench_config,), rounds=1, iterations=1)
    result_cache["ablation_features"] = result
    sections = tuple(formatter(result) for formatter in SPEC.section_formatters)
    path = persist_result(result, extra_sections=sections)
    json_path = write_ablation_json(result, RESULTS_DIR)
    print(format_rows(result))
    print(f"[ablation_features] rows written to {path}")
    print(f"[ablation_features] artifact written to {json_path}")

    payload = ablation_json_payload(result)
    features = {row["feature"]: row for row in payload["features"]}

    # Every registered feature is attributed, against the all-on baseline.
    assert set(features) == set(FEATURES.names())
    assert payload["baseline_config"] == BASELINE_CONFIG

    # The core invariant: bit-identical frontiers under every configuration,
    # and every deterministic work invariant holds.
    for name, row in features.items():
        assert row["digest_match"], f"{name}: frontier digest diverged"
        assert row["work_invariant_ok"], f"{name}: work invariant violated"
        assert row["baseline_seconds"] > 0
        assert row["ablated_seconds"] > 0

    # The gate the CI job runs over the JSON artifact agrees.
    assert check_gate(payload) == []
