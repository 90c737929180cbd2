"""Unit tests for the ablation harness: registry, grid, merge, gate."""

from __future__ import annotations

import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import flags, kernel
from repro.bench.ablation import (
    BASELINE_CONFIG,
    DEFAULT_GATE_FLOOR,
    FEATURES,
    Feature,
    FeatureRegistry,
    SPEC,
    _backend_for,
    _scale_name,
    ablated_feature,
    ablation_json_payload,
    check_gate,
    config_names,
    digest_of,
    write_ablation_json,
)
from repro.bench.config import CONFIG_PRESETS, smoke_config, tiny_config
from repro.bench.registry import get_spec, registered_names
from repro.service import PlanningService

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Environment of the clean-interpreter subprocesses; they must not write
#: bytecode into the source tree.
SUBPROCESS_ENV = {
    "PYTHONPATH": str(REPO_ROOT / "src"),
    "PYTHONDONTWRITEBYTECODE": "1",
    "PATH": "/usr/bin:/bin",
}


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestFeatureRegistry:
    def test_every_core_flag_has_a_registered_feature(self):
        flagged = {f.name for f in FEATURES.by_layer("core")}
        assert flagged == set(flags.known_flags())

    def test_expected_features_are_registered(self):
        assert set(FEATURES.names()) == {
            "numpy_kernel",
            "delta_sets",
            "frontier_cache",
            "tracing",
        }

    def test_readme_feature_table_lists_exactly_the_registry(self):
        readme = (REPO_ROOT / "README.md").read_text()
        section = readme.split("\n## Ablation & feature flags\n", 1)[1]
        section = section.split("\n## ", 1)[0]
        listed = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
        assert tuple(listed) == FEATURES.names()

    @pytest.mark.parametrize("name", FEATURES.names())
    def test_lowering_spells_a_live_knob(self, name):
        # The lowering is what a user types to turn the feature off: it must
        # name a knob that exists and the value that flips the default.
        feature = FEATURES.get(name)
        if feature.layer == "core":
            flipped = int(not flags.KNOWN_FLAGS[name])
            assert feature.lowering == (
                f"{flags.FEATURE_ENV_PREFIX}{name.upper()}={flipped}"
            )
        elif feature.layer == "kernel":
            match = re.match(rf"{kernel.BACKEND_ENV_VAR}=(\w+)\b", feature.lowering)
            assert match is not None, feature.lowering
            assert match.group(1) in kernel.BACKEND_NAMES
            assert match.group(1) == _backend_for(f"no_{name}")
        else:
            match = re.fullmatch(r"PlanningService\((\w+)=.+\)", feature.lowering)
            assert match is not None, feature.lowering
            assert match.group(1) in inspect.signature(PlanningService).parameters

    def test_only_the_numpy_kernel_ablation_leaves_the_auto_backend(self):
        auto = kernel._auto().NAME
        for config_name in config_names():
            expected = "python" if config_name == "no_numpy_kernel" else auto
            assert _backend_for(config_name) == expected, config_name

    def test_duplicate_registration_raises(self):
        registry = FeatureRegistry()
        feature = Feature(name="x", layer="service", description="", lowering="")
        registry.register(feature)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(feature)

    def test_core_feature_without_a_flag_is_rejected(self):
        registry = FeatureRegistry()
        with pytest.raises(ValueError, match="has no repro.flags flag"):
            registry.register(
                Feature(name="phantom", layer="core", description="", lowering="")
            )

    def test_unknown_layer_is_rejected(self):
        registry = FeatureRegistry()
        with pytest.raises(ValueError, match="unknown layer"):
            registry.register(
                Feature(name="x", layer="cosmic", description="", lowering="")
            )

    def test_config_names_cover_the_grid(self):
        names = config_names()
        assert names[0] == BASELINE_CONFIG
        assert set(names[1:]) == {f"no_{name}" for name in FEATURES.names()}
        assert ablated_feature(BASELINE_CONFIG) is None
        assert ablated_feature("no_delta_sets") == "delta_sets"
        with pytest.raises(ValueError):
            ablated_feature("bogus")


# ----------------------------------------------------------------------
# Flags module
# ----------------------------------------------------------------------
class TestFlags:
    def test_defaults_are_all_on(self):
        # ``tracing`` is the one opt-in flag: instrumentation must cost
        # nothing unless explicitly requested.
        for name in flags.known_flags():
            assert flags.enabled(name) == (name != "tracing")

    def test_overrides_restore_on_exit_even_on_error(self):
        with pytest.raises(RuntimeError):
            with flags.overrides(delta_sets=False):
                assert not flags.enabled("delta_sets")
                raise RuntimeError("boom")
        assert flags.enabled("delta_sets")

    @pytest.mark.parametrize(
        "name",
        [
            "warp_drive",
            "bounds_bucket",
            "sql_frontend",
            "witness_cache",
            "incremental_pareto",
            "block_costing",
        ],
    )
    def test_unknown_flag_raises(self, name):
        with pytest.raises(KeyError, match="unknown feature flag"):
            flags.enabled(name)
        with pytest.raises(KeyError):
            flags.set_flag(name, True)

    def test_environment_lowering(self):
        code = (
            "from repro import flags; "
            "assert not flags.enabled('delta_sets'); "
            "assert flags.enabled('tracing'); print('ok')"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={
                **SUBPROCESS_ENV,
                "REPRO_FEATURE_DELTA_SETS": "0",
                "REPRO_FEATURE_TRACING": "1",
            },
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    def test_variables_of_retired_flags_are_ignored(self):
        code = (
            "from repro import flags; "
            "assert flags.known_flags() == ('delta_sets', 'tracing'); "
            "print('ok')"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={
                **SUBPROCESS_ENV,
                "REPRO_FEATURE_WITNESS_CACHE": "0",
                "REPRO_FEATURE_INCREMENTAL_PARETO": "maybe",
            },
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    def test_garbage_environment_value_raises(self):
        with pytest.raises(ValueError, match="cannot parse"):
            flags._parse("delta_sets", "maybe")


class TestScaleName:
    """The service rows resolve their requests by the configuration's
    preset name, so a configuration must be a preset."""

    @pytest.mark.parametrize("name", sorted(CONFIG_PRESETS))
    def test_presets_map_to_their_names(self, name):
        assert _scale_name(CONFIG_PRESETS[name]()) == name

    def test_customised_configuration_is_refused(self):
        customised = smoke_config().with_overrides(metric_count_settings=(2,))
        with pytest.raises(ValueError, match="configuration 'smoke' is not a preset"):
            _scale_name(customised)


# ----------------------------------------------------------------------
# The registered experiment
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def grid():
    return SPEC.run(tiny_config())


class TestAblationSpec:
    def test_registered_under_the_bench_registry(self):
        assert "ablation_features" in registered_names()
        assert get_spec("ablation-features") is SPEC

    def test_rows_cover_exactly_the_registry(self, grid):
        cells = [row for row in grid.rows if row["row"] == "cell"]
        assert {row["config"] for row in cells} == set(config_names())
        assert {row["kind"] for row in cells} == {"series", "service"}

    def test_grid_produces_matching_digests_and_a_clean_gate(self, grid):
        payload = ablation_json_payload(grid)
        assert check_gate(payload) == []
        features = {row["feature"]: row for row in payload["features"]}
        assert set(features) == set(FEATURES.names())
        for row in features.values():
            assert row["digest_match"], row
            assert row["work_invariant_ok"], row

    def test_json_artifact_roundtrip(self, grid, tmp_path):
        path = write_ablation_json(grid, tmp_path)
        assert path.name == "ablation_features.json"
        payload = json.loads(path.read_text())
        assert payload["experiment"] == "ablation_features"
        assert check_gate(payload) == []


# ----------------------------------------------------------------------
# The gate
# ----------------------------------------------------------------------
class TestGate:
    def _payload(self, **overrides):
        """One clean row per registered feature; ``overrides`` edit delta_sets."""
        rows = []
        for feature in FEATURES.all():
            row = {
                "feature": feature.name,
                "layer": feature.layer,
                "active": True,
                "timed": True,
                "speedup": 1.2,
                "digest_match": True,
                "work_invariant_ok": True,
                "gate_floor": DEFAULT_GATE_FLOOR,
            }
            if feature.name == "delta_sets":
                row.update(overrides)
            rows.append(row)
        return {"features": rows}

    def test_clean_payload_passes(self):
        assert check_gate(self._payload()) == []

    def test_registered_feature_missing_from_the_payload_fails(self):
        payload = self._payload()
        payload["features"] = [
            row for row in payload["features"] if row["feature"] != "delta_sets"
        ]
        assert check_gate(payload) == [
            "delta_sets: registered feature missing from the payload"
        ]

    def test_unregistered_feature_in_the_payload_fails(self):
        # A stale artifact that still lists a retired feature must not pass.
        payload = self._payload()
        payload["features"].append(
            dict(payload["features"][0], feature="sql_frontend")
        )
        assert check_gate(payload) == [
            "sql_frontend: payload lists a feature that is not registered"
        ]

    def test_digest_divergence_fails(self):
        violations = check_gate(self._payload(digest_match=False))
        assert any("digest diverged" in v for v in violations)

    def test_work_invariant_violation_fails(self):
        violations = check_gate(self._payload(work_invariant_ok=False))
        assert any("work invariant" in v for v in violations)

    def test_contribution_regression_fails(self):
        violations = check_gate(self._payload(speedup=0.7))
        assert any("contribution regressed" in v for v in violations)

    def test_untimed_rows_skip_the_timing_gate_only(self):
        assert check_gate(self._payload(speedup=0.1, timed=False)) == []
        violations = check_gate(
            self._payload(speedup=0.1, timed=False, digest_match=False)
        )
        assert len(violations) == 1

    def test_inactive_features_skip_timing(self):
        assert check_gate(self._payload(speedup=0.1, active=False)) == []

    @pytest.mark.parametrize("floor", (None, 0.5), ids=("null", "lower"))
    def test_a_row_gate_floor_changes_nothing(self, floor):
        # Every active, timed feature is gated at the one shared floor,
        # whatever floor the artifact records.
        violations = check_gate(self._payload(speedup=0.7, gate_floor=floor))
        assert any("contribution regressed" in v for v in violations)

    def test_committed_artifact_passes_the_gate(self):
        path = REPO_ROOT / "results" / "ablation_features.json"
        assert check_gate(json.loads(path.read_text())) == []

    def test_empty_payload_fails(self):
        assert check_gate({"features": []}) == ["no feature rows found in payload"]

    def test_cli_check_entry_point(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(self._payload()))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(self._payload(digest_match=False)))
        env = SUBPROCESS_ENV
        ok = subprocess.run(
            [sys.executable, "-m", "repro.bench.ablation", "--check", str(good)],
            capture_output=True, text=True, env=env,
        )
        assert ok.returncode == 0, ok.stderr
        assert "ablation gate ok" in ok.stdout
        fail = subprocess.run(
            [sys.executable, "-m", "repro.bench.ablation", "--check", str(bad)],
            capture_output=True, text=True, env=env,
        )
        assert fail.returncode == 1
        assert "GATE FAIL" in fail.stderr


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def test_digest_is_order_sensitive_and_stable():
    rows = [["0x1.8p+3", "0x1.0p+0"], ["0x1.4p+2", "0x1.8p+1"]]
    assert digest_of(rows) == digest_of([list(row) for row in rows])
    assert digest_of(rows) != digest_of(list(reversed(rows)))
    assert len(digest_of(rows)) == 16


def test_tier_markers_are_registered(pytestconfig):
    registered = "\n".join(pytestconfig.getini("markers"))
    for marker in ("tier1", "slow", "bench"):
        assert f"{marker}:" in registered
