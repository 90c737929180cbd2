"""Tests for the experiment registry."""

import pytest

from repro.bench.experiments import ExperimentResult
from repro.bench.registry import ExperimentSpec, get_spec, register, registered_names


def test_all_known_experiments_are_registered():
    assert set(registered_names()) >= {
        "figure1",
        "figure2",
        "figure3",
        "figure4",
        "figure5",
        "ablation_freshness",
        "ablation_keep_dominated",
        "ablation_metric_count",
        "synthetic_topologies",
        "metric_sweep",
    }


def test_lookup_accepts_dashes():
    assert get_spec("ablation-freshness").name == "ablation_freshness"


def test_unknown_name_raises_with_candidates():
    with pytest.raises(KeyError, match="figure3"):
        get_spec("figure99")


def test_conflicting_registration_raises():
    spec = get_spec("figure3")
    assert register(spec) is spec  # re-registering the same object is fine
    impostor = ExperimentSpec(
        name="figure3",
        run=lambda config: ExperimentResult(name="figure3", description=""),
    )
    with pytest.raises(ValueError, match="already registered"):
        register(impostor)
    assert get_spec("figure3") is spec
