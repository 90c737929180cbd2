"""The names ``perfbench/layers.py`` wraps must exist and count a session.

The traced benchmark run times each layer by wrapping public functions of
the program by name.  The tier-1 suite never runs the benchmark itself, so
this installs the same wrappers around one small session.
"""

import importlib.util
from pathlib import Path

import pytest

from repro import kernel
from repro.api import OptimizeRequest, open_session
from repro.core.index import PlanIndex

try:
    import numpy  # noqa: F401

    BACKENDS = ("python", "numpy")
except ImportError:  # pragma: no cover - depends on environment
    BACKENDS = ("python",)

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("backend", BACKENDS)
def test_core_layer_wrappers_install_and_count_a_session(backend):
    layers = load_layers()
    clock = layers.LayerClock()
    with kernel.use_backend(backend):
        layers.install_core_layers(clock)
        try:
            with clock.frame():
                open_session(
                    OptimizeRequest(
                        workload="gen:clique:4:0", algorithm="iama", levels=3, scale="tiny"
                    )
                ).run()
        finally:
            clock.uninstall()
    calls = clock.snapshot()["calls"]
    assert calls["core.prune"] > 0
    # Every prune block queries its result set once.
    assert calls["core.retrieve"] >= calls["core.prune"]
    assert calls["kernel"] > 0 and calls["plans.combine"] > 0
    assert not hasattr(PlanIndex.retrieve_ids, "__wrapped__")
