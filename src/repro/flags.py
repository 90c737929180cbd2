"""Runtime feature flags.

Two seams of the system are boolean flags.  Each keeps a second path next to
the default one, and the differential suite
(``tests/bench/test_ablation_differential.py``) asserts that every
combination of flags gives bit-identical frontiers:

``delta_sets``
    Section 4.2's Δ-set optimization: under unchanged bounds, only newly
    inserted partial plans are joined.  Off: every invocation re-enumerates
    all pairs, and ``IsFresh`` -- decided from the invocation history, no
    table -- skips the pairs earlier invocations joined, so the frontier and
    every counter except ``pairs_enumerated`` are unchanged.
``tracing``
    The observability layer (:mod:`repro.obs`): span creation at the
    instrumented seams (invocation / generate / cost / prune / kernel
    block / cache lookup / scheduler timeslice / shard RPC).  The only
    flag that defaults to **off**: when disabled, every seam pays one
    dict lookup and receives a shared no-op span, so the hot paths are
    untouched.  Tracing never changes answers — the differential suites
    assert traced frontiers are bit-identical to untraced — and
    ``benchmarks/test_tracing_overhead.py`` bounds what a disabled span
    costs against the flag lookup itself.

Flags are global and read per call site (one dict lookup on a hot-path
*block* boundary, so the overhead is unmeasurable).  The environment lowering
``REPRO_FEATURE_<NAME>=0|1`` (also ``on``/``off``/``true``/``false``) is
applied at import, mirroring ``REPRO_KERNEL_BACKEND``; tests and experiments
use :func:`overrides` for scoped, exception-safe toggling.

The kernel backend and the frontier cache are deliberately *not* routed
through this module: the kernel already has its own runtime switch
(:func:`repro.kernel.use_backend`) and the service takes ``cache=False`` as a
constructor argument.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

#: Environment prefix: ``REPRO_FEATURE_DELTA_SETS=0`` disables a flag.
FEATURE_ENV_PREFIX = "REPRO_FEATURE_"

#: Flag name -> default state.  ``delta_sets`` defaults to on (the fast
#: path); ``tracing`` is the lone default-off flag (instrumentation must cost
#: nothing unless asked for).
KNOWN_FLAGS: Dict[str, bool] = {
    "delta_sets": True,
    "tracing": False,
}

_TRUTHY = {"1", "on", "true", "yes"}
_FALSY = {"0", "off", "false", "no"}


def _parse(name: str, raw: str) -> bool:
    normalized = raw.strip().lower()
    if normalized in _TRUTHY:
        return True
    if normalized in _FALSY:
        return False
    raise ValueError(
        f"{FEATURE_ENV_PREFIX}{name.upper()}: cannot parse {raw!r} as a "
        f"boolean; expected one of {sorted(_TRUTHY | _FALSY)}"
    )


def _from_environment() -> Dict[str, bool]:
    state = dict(KNOWN_FLAGS)
    for name in KNOWN_FLAGS:
        raw = os.environ.get(FEATURE_ENV_PREFIX + name.upper())
        if raw is not None and raw.strip() != "":
            state[name] = _parse(name, raw)
    return state


_state: Dict[str, bool] = _from_environment()


def known_flags() -> Tuple[str, ...]:
    """All flag names, sorted."""
    return tuple(sorted(KNOWN_FLAGS))


def _check(name: str) -> str:
    if name not in KNOWN_FLAGS:
        raise KeyError(
            f"unknown feature flag {name!r}; known flags: {', '.join(known_flags())}"
        )
    return name


def enabled(name: str) -> bool:
    """Whether the named optimization is active."""
    return _state[_check(name)]


def set_flag(name: str, value: bool) -> bool:
    """Set one flag; returns the previous value."""
    _check(name)
    previous = _state[name]
    _state[name] = bool(value)
    return previous


@contextmanager
def overrides(**flags: bool) -> Iterator[None]:
    """Scoped flag overrides: ``with flags.overrides(delta_sets=False): ...``

    Restores the previous values on exit even when the body raises, so a
    failing run never leaks its configuration into the next one.
    """
    previous = {name: set_flag(name, value) for name, value in flags.items()}
    try:
        yield
    finally:
        for name, value in previous.items():
            set_flag(name, value)
