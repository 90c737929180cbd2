"""Tests for the runtime feature flags (:mod:`repro.flags`) and the README
table of every seam's switch."""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import flags, kernel
from repro.api import OptimizeRequest
from repro.service import CACHE_HIT, CACHE_MISS, PlanningService

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Environment of the clean-interpreter subprocesses; they must not write
#: bytecode into the source tree.
SUBPROCESS_ENV = {
    "PYTHONPATH": str(REPO_ROOT / "src"),
    "PYTHONDONTWRITEBYTECODE": "1",
    "PATH": "/usr/bin:/bin",
}


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


def _feature_table():
    """``(seam, default, switch)`` per row of the README "Feature flags" table."""
    readme = (REPO_ROOT / "README.md").read_text()
    section = readme.split("\n## Feature flags\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| ([^|]+?) \| ([^|]+?) \| `([^`]+)` \|", section, re.M)


FEATURE_TABLE = _feature_table()


def _probe(expression: str, variable: str, value: str) -> str:
    """``expression`` evaluated in a fresh interpreter with ``variable=value``."""
    proc = subprocess.run(
        [sys.executable, "-c", f"from repro import flags, kernel; print({expression})"],
        capture_output=True,
        text=True,
        env={**SUBPROCESS_ENV, variable: value},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _repeat_status(**service_args) -> str:
    """Cache status of a request submitted again after its first run."""
    request = OptimizeRequest(workload="gen:chain:3:0", levels=2, scale="tiny")
    with PlanningService(workers=0, **service_args) as service:
        service.submit(request)
        service.run_until_idle()
        return service.poll(service.submit(request))["cache_status"]


class TestReadmeFeatureTable:
    def test_rows_name_every_flag_with_its_default(self):
        listed = {}
        for _, default, switch in FEATURE_TABLE:
            match = re.fullmatch(rf"{flags.FEATURE_ENV_PREFIX}(\w+)=([01])", switch)
            if match:
                listed[match.group(1).lower()] = (default, match.group(2))
        assert listed == {
            name: ("on" if default else "off", str(int(not default)))
            for name, default in flags.KNOWN_FLAGS.items()
        }

    @pytest.mark.parametrize("switch", [row[2] for row in FEATURE_TABLE])
    def test_switch_turns_its_seam_away_from_the_default(self, switch):
        variable, _, value = switch.partition("=")
        if variable.startswith(flags.FEATURE_ENV_PREFIX):
            name = variable[len(flags.FEATURE_ENV_PREFIX):].lower()
            assert flags.KNOWN_FLAGS[name] != bool(int(value))
            assert _probe(f"flags.enabled({name!r})", variable, value) == str(
                bool(int(value))
            )
        elif variable == kernel.BACKEND_ENV_VAR:
            assert value in kernel.BACKEND_NAMES
            assert _probe("kernel.backend_name()", variable, value) == value
        else:
            call = re.fullmatch(r"PlanningService\((\w+)=(.+)\)", switch)
            assert call is not None, f"unrecognised switch {switch!r}"
            argument = {call.group(1): ast.literal_eval(call.group(2))}
            assert _repeat_status() == CACHE_HIT
            assert _repeat_status(**argument) == CACHE_MISS


def test_tier_markers_are_registered(pytestconfig):
    registered = "\n".join(pytestconfig.getini("markers"))
    for marker in ("tier1", "slow", "bench"):
        assert f"{marker}:" in registered
