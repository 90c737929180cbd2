"""Differential fuzzing of the feature-flag matrix.

The flags' core invariant: every combination of feature flags produces a
bit-identical frontier, identical ``plans_generated``, and (up to each flag's
declared counter exemptions) identical per-invocation counters.  This suite
fuzzes randomized ``OptimizeRequest``s — topology x size x seed x metric
subset — under random flag subsets on both kernel backends and compares
everything against the all-on configuration.  A fixed grid then flips each
flag alone away from its default, and switches the kernel backend, on one
workload per generated topology, a TPC-H block and a template instantiation,
and checks the work Δ-sets save pair by pair.

Seeded ``random.Random`` keeps every run reproducible; a failure message
names the scenario and flag subset so it can be replayed directly.
"""

from __future__ import annotations

import itertools
import random
from contextlib import ExitStack
from typing import Dict, List, Optional, Tuple

import pytest

from repro import flags, kernel
from repro.api import OptimizeRequest, open_session
from tests.core.golden_capture import IAMA_COUNTER_FIELDS

TOPOLOGIES = ("chain", "star", "cycle", "clique")
METRIC_CHOICES = (
    None,  # the configuration's default metric set
    ("execution_time", "monetary_fees"),
    ("execution_time", "energy", "io_load"),
    ("execution_time", "buffer_space"),
)
CORE_FLAGS = tuple(sorted(flags.KNOWN_FLAGS))
DEFAULT_FLAGS = dict(flags.KNOWN_FLAGS)
#: Counter fields a disabled flag is allowed to change; every other counter
#: stays bit-identical.
COUNTER_EXEMPT = {"delta_sets": ("pairs_enumerated",)}
#: The fixed grid: one workload per generated topology, a six-table TPC-H
#: block and a five-join template instantiation, three invocations each.
GRID_WORKLOADS = (
    "gen:chain:5:0",
    "gen:star:5:0",
    "gen:cycle:5:0",
    "gen:clique:5:0",
    "tpch:q05",
    "template:ss_address_rollup:0",
)
GRID_LEVELS = 3

try:
    import numpy  # noqa: F401

    BACKENDS = ("python", "numpy")
except ImportError:  # pragma: no cover - numpy ships in the dev env
    BACKENDS = ("python",)


def _scenarios(seed: int, count: int) -> List[Dict[str, object]]:
    """Randomized request scenarios plus a random non-empty flag subset each."""
    rng = random.Random(seed)
    scenarios = []
    for _ in range(count):
        subset_size = rng.randint(1, len(CORE_FLAGS))
        disabled = tuple(sorted(rng.sample(CORE_FLAGS, subset_size)))
        scenarios.append(
            {
                "topology": rng.choice(TOPOLOGIES),
                "tables": rng.randint(3, 4),
                "seed": rng.randint(0, 9),
                "levels": rng.randint(2, 3),
                "metrics": rng.choice(METRIC_CHOICES),
                "disabled": disabled,
            }
        )
    return scenarios


def _all_on_except(disabled: Tuple[str, ...]) -> Dict[str, bool]:
    return {name: name not in disabled for name in CORE_FLAGS}


def _defaults_with(flipped: str) -> Dict[str, bool]:
    """The default flag values with ``flipped`` alone turned the other way."""
    return dict(DEFAULT_FLAGS, **{flipped: not DEFAULT_FLAGS[flipped]})


def _capture(
    scenario: Dict[str, object],
    backend: str,
    flag_values: Optional[Dict[str, bool]] = None,
) -> Dict[str, object]:
    """Run one scenario under flag values (all on unless given); return the
    pinned facts."""
    workload = scenario.get("workload") or (
        f"gen:{scenario['topology']}:{scenario['tables']}:{scenario['seed']}"
    )
    request = OptimizeRequest(
        workload=workload,
        algorithm="iama",
        scale="tiny",
        levels=scenario["levels"],
        metrics=scenario["metrics"],
    )
    with ExitStack() as stack:
        stack.enter_context(kernel.use_backend(backend))
        stack.enter_context(flags.overrides(**(flag_values or _all_on_except(()))))
        result = open_session(request).run()
    counters = [
        {
            name: invocation.details[name]
            for name in IAMA_COUNTER_FIELDS
            if name in invocation.details
        }
        for invocation in result.invocations
    ]
    return {
        "frontier": [
            [value.hex() for value in summary.cost] for summary in result.frontier
        ],
        "plans_generated": result.plans_generated,
        "invocations": len(result.invocations),
        "counters": counters,
    }


def _exempt_fields(disabled: Tuple[str, ...]) -> Tuple[str, ...]:
    """Counter fields the disabled flags are declared allowed to change."""
    exempt: List[str] = []
    for name in disabled:
        exempt.extend(COUNTER_EXEMPT.get(name, ()))
    return tuple(exempt)


def _strip(counters, exempt):
    return [
        {name: value for name, value in invocation.items() if name not in exempt}
        for invocation in counters
    ]


def _pairs(capture) -> List[int]:
    """Pairs enumerated per invocation."""
    return [
        invocation.get("pairs_enumerated", 0) for invocation in capture["counters"]
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fuzz_seed", [11, 23])
def test_random_flag_subsets_are_bit_identical(backend, fuzz_seed):
    for scenario in _scenarios(fuzz_seed, count=4):
        disabled = scenario["disabled"]
        label = (
            f"gen:{scenario['topology']}:{scenario['tables']}:{scenario['seed']}"
            f" levels={scenario['levels']} metrics={scenario['metrics']}"
            f" disabled={disabled} backend={backend}"
        )
        baseline = _capture(scenario, backend)
        ablated = _capture(scenario, backend, _all_on_except(disabled))
        assert ablated["frontier"] == baseline["frontier"], label
        assert ablated["plans_generated"] == baseline["plans_generated"], label
        assert ablated["invocations"] == baseline["invocations"], label
        exempt = _exempt_fields(disabled)
        assert _strip(ablated["counters"], exempt) == _strip(
            baseline["counters"], exempt
        ), label


@pytest.mark.skipif(len(BACKENDS) < 2, reason="numpy backend unavailable")
def test_flag_subsets_are_identical_across_backends():
    """The all-off configuration on numpy equals the all-on one on python."""
    scenario = {
        "topology": "clique",
        "tables": 4,
        "seed": 3,
        "levels": 3,
        "metrics": None,
    }
    all_off = tuple(CORE_FLAGS)
    python_baseline = _capture(scenario, "python")
    numpy_ablated = _capture(scenario, "numpy", _all_on_except(all_off))
    assert numpy_ablated["frontier"] == python_baseline["frontier"]
    assert numpy_ablated["plans_generated"] == python_baseline["plans_generated"]
    exempt = _exempt_fields(all_off)
    assert _strip(numpy_ablated["counters"], exempt) == _strip(
        python_baseline["counters"], exempt
    )


def test_delta_sets_exemption_is_real():
    """Disabling Δ-sets must actually enumerate more pairs (the exemption is
    not a loophole: the feature demonstrably does work, everything else is
    still pinned bit-identical by the test above)."""
    scenario = {
        "topology": "cycle",
        "tables": 4,
        "seed": 0,
        "levels": 3,
        "metrics": None,
    }
    baseline = _capture(scenario, "python")
    ablated = _capture(scenario, "python", _all_on_except(("delta_sets",)))
    assert sum(_pairs(ablated)) > sum(_pairs(baseline))
    assert ablated["frontier"] == baseline["frontier"]


def _grid_scenario(workload: str) -> Dict[str, object]:
    return {"workload": workload, "levels": GRID_LEVELS, "metrics": None}


@pytest.mark.parametrize("workload", GRID_WORKLOADS)
@pytest.mark.parametrize("flag", CORE_FLAGS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_one_flag_flipped_from_its_default_is_bit_identical(backend, flag, workload):
    scenario = _grid_scenario(workload)
    default = _capture(scenario, backend, DEFAULT_FLAGS)
    flipped = _capture(scenario, backend, _defaults_with(flag))
    label = f"{workload}: {flag} flipped to {not DEFAULT_FLAGS[flag]} on {backend}"
    assert default["frontier"], label
    assert flipped["frontier"] == default["frontier"], label
    assert flipped["plans_generated"] == default["plans_generated"], label
    assert flipped["invocations"] == default["invocations"] == GRID_LEVELS, label
    exempt = _exempt_fields((flag,))
    assert _strip(flipped["counters"], exempt) == _strip(
        default["counters"], exempt
    ), label


@pytest.mark.skipif(len(BACKENDS) < 2, reason="numpy backend unavailable")
@pytest.mark.parametrize("workload", GRID_WORKLOADS)
def test_backends_agree_on_the_frontier_and_every_counter(workload):
    scenario = _grid_scenario(workload)
    numpy_run = _capture(scenario, "numpy", DEFAULT_FLAGS)
    assert numpy_run["frontier"]
    assert numpy_run == _capture(scenario, "python", DEFAULT_FLAGS)


@pytest.mark.parametrize("workload", GRID_WORKLOADS)
def test_delta_sets_enumerate_each_pair_once(workload):
    """With Δ-sets an invocation joins only the pairs with a newly inserted
    side (Section 4.2), so a session that never steers enumerates each pair of
    retrievable plans once.  Without them every invocation re-enumerates all
    retrievable pairs: exactly the running total of the Δ-set run."""
    scenario = _grid_scenario(workload)
    with_delta = _pairs(_capture(scenario, "python", DEFAULT_FLAGS))
    without = _pairs(_capture(scenario, "python", _defaults_with("delta_sets")))
    assert without == list(itertools.accumulate(with_delta))
    assert sum(without) > sum(with_delta)
