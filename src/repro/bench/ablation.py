"""First-class ablation harness: per-feature speedup attribution with gates.

The stacked optimizations (the numpy kernel backend, Δ-sets, frontier cache,
tracing) each kept a slower reference path alive;
this module turns those seams into a registry of named features and
measures what each one contributes.

* :class:`Feature` / :class:`FeatureRegistry` declare every toggleable
  optimization together with the lowering the codebase already understands
  (a :mod:`repro.flags` flag, the :mod:`repro.kernel` backend switch, or a
  :class:`~repro.service.PlanningService` constructor argument).
* :func:`config_names` names the grid: the all-on baseline plus one
  ``no_<feature>`` configuration per registered feature.  The grid is always
  the whole registry.
* :func:`ablation_features`, the registered ``ablation_features``
  experiment, runs that grid and appends per-feature attribution rows.
* :func:`ablation_json_payload` / :func:`write_ablation_json` emit the
  machine-readable artifact ``results/ablation_features.json``; the artifact
  is a pure function of the rows, so rendering one result twice is
  byte-identical.
* :func:`check_gate` is the CI gate: it fails when the artifact's features
  differ from the registry, on frontier-digest divergence (the bit-identity
  invariant), on violated per-feature work invariants (deterministic
  counters), and on a feature whose measured contribution regressed beyond
  tolerance.  ``python -m repro.bench.ablation --check
  results/ablation_features.json`` runs it from the command line.

The core invariant asserted everywhere: every flag combination produces a
bit-identical frontier — only speed (and, for Δ-sets, the amount of pair
enumeration) differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import flags, kernel
from repro.bench.config import CONFIG_PRESETS, ExperimentConfig
from repro.bench.registry import ExperimentSpec, register

EXPERIMENT_NAME = "ablation_features"

#: Short digests everywhere: 16 hex chars of SHA-256 (64 bits — collisions
#: among the handful of configurations in one grid are not a concern).
DIGEST_CHARS = 16

#: Tolerance of the timing gate, the same for every feature: an ablated
#: configuration may be at most this much *faster* than the all-on baseline
#: before the gate fails (i.e. the feature's measured contribution regressed
#: by >20% below break-even).  Feature rows record it as ``gate_floor``.
DEFAULT_GATE_FLOOR = 0.8

#: The timing gate only engages when the baseline takes at least this long —
#: below it (the tiny and smoke scales: baselines of ~0.02-0.1 s) per-run
#: noise exceeds the tolerance and a timing verdict would be meaningless
#: flakiness.  The digest and work-invariant gates apply at every scale;
#: speedups are *recorded* at every scale regardless.
MIN_TIMED_SECONDS = 1.0

#: Series rows time best-of-N to damp scheduler noise (the digest and
#: counters come from the first run; all runs are bit-identical anyway).
TIMING_REPEATS = 3

#: Times the service rows resubmit every request in their warm phase.
SERVICE_REPEATS = 2


# ----------------------------------------------------------------------
# Feature registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Feature:
    """One toggleable optimization.

    Attributes
    ----------
    name:
        Registry key; the ablated configuration is named ``no_<name>``.
    layer:
        ``kernel`` (backend switch), ``core`` (a :mod:`repro.flags` flag) or
        ``service`` (a :class:`PlanningService` constructor argument).
    description:
        What the optimization does (one line, for the flag table).
    lowering:
        The mechanism that disables it — an existing knob, spelled the way a
        user would type it.
    counter_exempt:
        Invocation-counter fields this feature is *allowed* to change (the
        differential suite pins every other counter bit-identical).
    """

    name: str
    layer: str
    description: str
    lowering: str
    counter_exempt: Tuple[str, ...] = ()


class FeatureRegistry:
    """Named features, iterated deterministically in registration order."""

    def __init__(self) -> None:
        self._features: Dict[str, Feature] = {}

    def register(self, feature: Feature) -> Feature:
        if feature.name in self._features:
            raise ValueError(f"feature {feature.name!r} is already registered")
        if feature.layer not in ("kernel", "core", "service"):
            raise ValueError(
                f"feature {feature.name!r}: unknown layer {feature.layer!r}"
            )
        if feature.layer == "core" and feature.name not in flags.KNOWN_FLAGS:
            raise ValueError(
                f"core feature {feature.name!r} has no repro.flags flag"
            )
        self._features[feature.name] = feature
        return feature

    def get(self, name: str) -> Feature:
        try:
            return self._features[name]
        except KeyError:
            raise KeyError(
                f"unknown feature {name!r}; registered: {', '.join(self.names())}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        return tuple(self._features)

    def all(self) -> Tuple[Feature, ...]:
        return tuple(self._features.values())

    def by_layer(self, *layers: str) -> Tuple[Feature, ...]:
        return tuple(f for f in self._features.values() if f.layer in layers)


#: The shipped registry: every optimization stacked by PRs 1-6 that kept a
#: reference path alive.
FEATURES = FeatureRegistry()

FEATURES.register(
    Feature(
        name="numpy_kernel",
        layer="kernel",
        description="vectorized numpy dominance kernel vs pure-Python loops",
        lowering='REPRO_KERNEL_BACKEND=python / kernel.use_backend("python")',
    )
)
FEATURES.register(
    Feature(
        name="delta_sets",
        layer="core",
        description="Section 4.2 Δ-sets: join only newly inserted plans per invocation",
        lowering="REPRO_FEATURE_DELTA_SETS=0",
        counter_exempt=("pairs_enumerated", "candidates_retrieved"),
    )
)
FEATURES.register(
    Feature(
        name="frontier_cache",
        layer="service",
        description="cross-request frontier cache: replay repeats, warm-start bigger budgets",
        lowering="PlanningService(cache=False)",
    )
)
FEATURES.register(
    Feature(
        name="tracing",
        layer="core",
        description="span tracer at the optimizer/service seams (default off)",
        lowering="REPRO_FEATURE_TRACING=1",
        # Since ``tracing`` defaults *off*, its grid row inverts the usual
        # reading: ``no_tracing`` flips the flag to ON, so ``speedup`` is the
        # measured cost of the instrumentation (>= 1.0 when tracing costs
        # anything at all).  The digest gate certifies traced frontiers are
        # bit-identical to untraced ones, and the default floor fires only if
        # the traced run is >20% *faster* than the untraced baseline — which
        # can only mean the disabled-tracer (no-op span) path itself
        # regressed, the zero-overhead guarantee this row exists to guard.
    )
)


# ----------------------------------------------------------------------
# Grid definition
# ----------------------------------------------------------------------
BASELINE_CONFIG = "all_on"


def config_names() -> Tuple[str, ...]:
    """The grid the runner executes: baseline + one config per feature."""
    return (BASELINE_CONFIG,) + tuple(f"no_{name}" for name in FEATURES.names())


def ablated_feature(config_name: str) -> Optional[str]:
    """The feature a grid configuration disables (None for the baseline)."""
    if config_name == BASELINE_CONFIG:
        return None
    if not config_name.startswith("no_"):
        raise ValueError(f"unknown ablation configuration {config_name!r}")
    return config_name[len("no_"):]


def digest_of(obj: object) -> str:
    """Stable short content digest of a JSON-serializable object."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:DIGEST_CHARS]


def frontier_hex_rows(result) -> List[List[str]]:
    """Frontier cost rows, hex-encoded — exact to the last bit over JSON."""
    return [[value.hex() for value in summary.cost] for summary in result.frontier]


def _scale_name(config: ExperimentConfig) -> str:
    """Preset name of a configuration (service rows resolve requests by it).

    A configuration that is no preset has no name a request could carry, so
    it is refused rather than served at some other scale.
    """
    for name, preset in CONFIG_PRESETS.items():
        if preset() == config:
            return name
    raise ValueError(
        f"configuration {config.name!r} is not a preset (or differs from the "
        "preset of that name); the ablation service rows resolve their "
        "requests by preset name"
    )


def _auto_backend() -> str:
    """The backend ``auto`` selects here: the one the all-on baseline runs."""
    return kernel._auto().NAME


def _backend_for(config_name: str) -> str:
    if config_name == "no_numpy_kernel":
        return "python"
    return _auto_backend()


# ----------------------------------------------------------------------
# The grid
# ----------------------------------------------------------------------
def _apply_configuration(stack: ExitStack, config_name: str, backend: str) -> None:
    """Lower one grid configuration onto the process (scoped via ``stack``).

    Flags and the kernel backend are applied explicitly for each row, so
    ambient process state never leaks into a measurement.
    """
    feature_name = ablated_feature(config_name)
    # The baseline pins every flag to its *default* and a grid configuration
    # flips exactly one.  For the default-on optimizations this reads as
    # before (``no_<f>`` turns f off); for default-off ``tracing`` it means
    # ``no_tracing`` turns tracing *on*, so that row measures the cost of
    # the instrumentation rather than re-measuring the baseline.
    core_flags = dict(flags.KNOWN_FLAGS)
    if feature_name in core_flags:
        core_flags[feature_name] = not core_flags[feature_name]
    stack.enter_context(flags.overrides(**core_flags))
    stack.enter_context(kernel.use_backend(backend))


def _series_rows(config: ExperimentConfig) -> List[Dict[str, object]]:
    """Core/kernel grid: one row per (configuration, topology), sorted.

    One table count (the largest configured) and one seed keep the grid
    proportional to the configuration count; the scaling curves live in the
    dedicated sweep experiments.  Each row times the best of
    ``TIMING_REPEATS`` sessions.
    """
    from repro.bench.runner import _open_planner, build_factory, build_schedule
    from repro.bench.config import MODERATE_PRECISION
    from repro.workloads.generator import generated_workload

    levels = max(config.resolution_level_settings)
    tables = max(config.synthetic_table_counts)
    seed = config.synthetic_seeds[0]
    core_configs = [BASELINE_CONFIG] + [
        f"no_{feature.name}" for feature in FEATURES.by_layer("kernel", "core")
    ]
    rows: List[Dict[str, object]] = []
    for config_name in sorted(core_configs):
        backend = _backend_for(config_name)
        for topology in sorted(config.synthetic_topologies):
            generated = generated_workload(seed, tables, topology)
            with ExitStack() as stack:
                _apply_configuration(stack, config_name, backend)
                result = None
                seconds = None
                for _ in range(TIMING_REPEATS):
                    factory = build_factory(
                        generated.query, config, statistics=generated.statistics
                    )
                    schedule = build_schedule(levels, MODERATE_PRECISION)
                    session = _open_planner(
                        "iama", generated.query, factory, schedule
                    )
                    run = session.run()
                    if result is None:
                        result = run
                    seconds = (
                        run.total_seconds
                        if seconds is None
                        else min(seconds, run.total_seconds)
                    )
            rows.append(
                {
                    "row": "cell",
                    "kind": "series",
                    "config": config_name,
                    "workload": f"gen:{topology}:{tables}:{seed}",
                    "backend": backend,
                    "seconds": seconds,
                    "plans_generated": result.plans_generated,
                    "pairs_enumerated": sum(
                        int(invocation.details.get("pairs_enumerated", 0))
                        for invocation in result.invocations
                    ),
                    "frontier_digest": digest_of(frontier_hex_rows(result)),
                }
            )
    return rows


def _service_row(config: ExperimentConfig, config_name: str) -> Dict[str, object]:
    """Drive an in-process manual-mode service through a cold + warm trace.

    Phase 1 submits every unique request and drains step-by-step (concurrent
    sessions, round-robin timeslices); phase 2 resubmits each request
    ``SERVICE_REPEATS`` times (pure cache traffic when the frontier cache is
    on).  ``step_once`` makes the whole trace deterministic.
    """
    import time

    from repro.api import OptimizeRequest
    from repro.service import PlanningService

    tables = min(config.synthetic_table_counts)
    seed = config.synthetic_seeds[0]
    cache = False if ablated_feature(config_name) == "frontier_cache" else None
    backend = _auto_backend()
    requests = [
        OptimizeRequest(
            workload=f"gen:{topology}:{tables}:{seed}",
            algorithm="iama",
            scale=_scale_name(config),
            levels=max(config.resolution_level_settings),
        )
        for topology in config.synthetic_topologies
    ]
    started = time.perf_counter()
    with ExitStack() as stack:
        _apply_configuration(stack, BASELINE_CONFIG, backend)
        service = stack.enter_context(
            PlanningService(workers=0, cache=cache)
        )
        # Cold phase: all unique requests in flight at once.
        cold_tickets = [service.submit(request) for request in requests]
        cold_steps: List[str] = []
        while (ticket := service.step_once()) is not None:
            cold_steps.append(ticket)
        # Warm phase: every request resubmitted ``SERVICE_REPEATS`` times.
        warm_tickets = []
        for _ in range(SERVICE_REPEATS):
            warm_tickets.extend(service.submit(request) for request in requests)
        warm_steps: List[str] = []
        while (ticket := service.step_once()) is not None:
            warm_steps.append(ticket)
        seconds = time.perf_counter() - started
        frontiers = [
            frontier_hex_rows(service.result(ticket))
            for ticket in cold_tickets + warm_tickets
        ]
    return {
        "row": "cell",
        "kind": "service",
        "config": config_name,
        "workload": f"service-trace:{tables}t",
        "backend": backend,
        "seconds": seconds,
        "cold_slices": len(cold_steps),
        "warm_slices": len(warm_steps),
        "frontier_digest": digest_of(frontiers),
    }


def ablation_features(config: ExperimentConfig) -> "ExperimentResult":
    """Run the grid: per-row measurements, then one attribution row per feature.

    The series rows come first, then one service row per service
    configuration (baseline + service ablations), both sorted by
    configuration name; every feature is attributed against the all-on
    baseline of its layer.
    """
    from repro.bench.experiments import ExperimentResult

    service_configs = [BASELINE_CONFIG] + [
        f"no_{feature.name}" for feature in FEATURES.by_layer("service")
    ]
    cells = _series_rows(config) + [
        _service_row(config, config_name) for config_name in sorted(service_configs)
    ]

    def summary(kind: str, config_name: str) -> Dict[str, object]:
        matching = [
            row for row in cells if row["kind"] == kind and row["config"] == config_name
        ]
        return {
            "seconds": sum(row["seconds"] for row in matching),
            "pairs_enumerated": sum(row.get("pairs_enumerated", 0) for row in matching),
            "warm_slices": sum(row.get("warm_slices", 0) for row in matching),
            "digest": digest_of([row["frontier_digest"] for row in matching]),
        }

    features: List[Dict[str, object]] = []

    for feature in FEATURES.all():
        kind = "service" if feature.layer == "service" else "series"
        baseline = summary(kind, BASELINE_CONFIG)
        ablated = summary(kind, f"no_{feature.name}")
        active = True
        invariant_ok = True
        if feature.name == "frontier_cache":
            # With the cache on, the warm phase replays (zero slices);
            # without it, every repeat recomputes.
            invariant_ok = baseline["warm_slices"] == 0 and ablated["warm_slices"] > 0
        if feature.name == "numpy_kernel":
            active = _auto_backend() == "numpy"
        if feature.name == "delta_sets":
            invariant_ok = ablated["pairs_enumerated"] > baseline["pairs_enumerated"]
        features.append(
            {
                "row": "feature",
                "feature": feature.name,
                "layer": feature.layer,
                "active": active,
                "timed": baseline["seconds"] >= MIN_TIMED_SECONDS,
                "baseline_seconds": baseline["seconds"],
                "ablated_seconds": ablated["seconds"],
                "speedup": (
                    ablated["seconds"] / baseline["seconds"]
                    if baseline["seconds"] > 0
                    else 1.0
                ),
                "digest_match": ablated["digest"] == baseline["digest"],
                "work_invariant_ok": invariant_ok,
                "gate_floor": DEFAULT_GATE_FLOOR,
                "lowering": feature.lowering,
            }
        )

    return ExperimentResult(
        name=EXPERIMENT_NAME,
        description=(
            "Per-feature ablation of every stacked optimization: the all-on "
            "baseline against one-feature-off configurations, with bit-exact "
            "frontier digests (every configuration must match the baseline) "
            "and speedup attribution (ablated seconds / baseline seconds; "
            ">1 means the feature helps)."
        ),
        rows=cells + features,
    )


# ----------------------------------------------------------------------
# Text section + JSON artifact
# ----------------------------------------------------------------------
def _attribution_section(result) -> str:
    lines = [f"== {EXPERIMENT_NAME}: per-feature attribution =="]
    header = (
        f"{'feature':>18} {'layer':>8} {'active':>7} {'speedup':>8} "
        f"{'digest':>7} {'invariant':>10}  lowering"
    )
    lines.append(header)
    for row in result.rows:
        if row.get("row") != "feature":
            continue
        lines.append(
            f"{row['feature']:>18} {row['layer']:>8} "
            f"{'yes' if row['active'] else 'no':>7} {row['speedup']:>8.3f} "
            f"{'ok' if row['digest_match'] else 'DIVERGED':>7} "
            f"{'ok' if row['work_invariant_ok'] else 'VIOLATED':>10}  "
            f"{row['lowering']}"
        )
    return "\n".join(lines)


def ablation_json_payload(result) -> Dict[str, object]:
    """The machine-readable artifact: attribution + digests, rows verbatim.

    A pure function of the rows — rendering one result twice is
    byte-identical.
    """
    features = [row for row in result.rows if row.get("row") == "feature"]
    cells = [row for row in result.rows if row.get("row") == "cell"]
    baseline = sorted(
        {
            row["frontier_digest"]
            for row in cells
            if row["config"] == BASELINE_CONFIG and row["kind"] == "series"
        }
    )
    return {
        "experiment": EXPERIMENT_NAME,
        "description": result.description,
        "baseline_config": BASELINE_CONFIG,
        "baseline_series_digests": baseline,
        "features": features,
        "cells": cells,
    }


def write_ablation_json(result, directory) -> Path:
    """Write ``<directory>/ablation_features.json`` (the tracked artifact)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{EXPERIMENT_NAME}.json"
    payload = ablation_json_payload(result)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# The CI gate
# ----------------------------------------------------------------------
def check_gate(payload: Mapping) -> List[str]:
    """Validate an ``ablation_features.json`` payload; returns violations.

    Four checks, strongest first:

    1. **Coverage** (hard): the payload lists exactly the registered
       features -- none missing, none retired or unknown.
    2. **Bit-identity** (hard): every configuration's frontier digest equals
       the all-on baseline's.
    3. **Work invariants** (hard): deterministic counters that prove a
       feature actually did something (Δ-sets enumerate fewer pairs, the
       frontier cache replays the warm phase with zero slices).
    4. **Timing** (tolerance): an ablated configuration must not run more
       than ``1 - DEFAULT_GATE_FLOOR`` (20%) faster than the baseline — a
       feature that *slows things down* that much has regressed.  Skipped
       for inactive features (e.g. ``numpy_kernel`` without numpy) and for
       untimed rows.
    """
    violations: List[str] = []
    features = payload.get("features", [])
    if not features:
        return ["no feature rows found in payload"]
    listed = [row.get("feature", "<unnamed>") for row in features]
    for name in FEATURES.names():
        if name not in listed:
            violations.append(f"{name}: registered feature missing from the payload")
    for name in listed:
        if name not in FEATURES.names():
            violations.append(f"{name}: payload lists a feature that is not registered")
    for row in features:
        name = row.get("feature", "<unnamed>")
        if not row.get("digest_match", False):
            violations.append(
                f"{name}: frontier digest diverged from the all-on baseline "
                "(bit-identity invariant broken)"
            )
        if not row.get("work_invariant_ok", True):
            violations.append(
                f"{name}: work invariant violated (the ablated run did not "
                "show the expected counter difference)"
            )
        if not row.get("active", True) or not row.get("timed", True):
            # Inactive feature, or a baseline too fast to time meaningfully
            # (tiny scale): the correctness gates above still applied; skip
            # the timing verdict.
            continue
        speedup = float(row.get("speedup", 1.0))
        if speedup < DEFAULT_GATE_FLOOR:
            violations.append(
                f"{name}: contribution regressed — disabling it made the run "
                f"{1 / speedup:.2f}x faster (speedup {speedup:.3f} < "
                f"floor {DEFAULT_GATE_FLOOR})"
            )
    return violations


SPEC = register(
    ExperimentSpec(
        name=EXPERIMENT_NAME,
        run=ablation_features,
        section_formatters=(_attribution_section,),
        artifacts=(write_ablation_json,),
    )
)


def _main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.ablation",
        description="Check an ablation_features.json artifact against the gate.",
    )
    parser.add_argument(
        "--check",
        metavar="JSON",
        required=True,
        help="path to a results/ablation_features.json artifact",
    )
    args = parser.parse_args(argv)
    payload = json.loads(Path(args.check).read_text())
    violations = check_gate(payload)
    if violations:
        for violation in violations:
            print(f"GATE FAIL: {violation}", file=sys.stderr)
        return 1
    features = payload.get("features", [])
    print(
        f"ablation gate ok: {len(features)} features, all digests match the "
        f"{payload.get('baseline_config', BASELINE_CONFIG)} baseline"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in CI
    raise SystemExit(_main())
