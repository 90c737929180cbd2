"""Batched dominance/coverage kernel.

Every hot loop of the optimizer boils down to a handful of primitive
comparisons between one cost vector and a *block* of cost vectors: "which of
these plans respect the bounds?", "which incumbents does the new plan
dominate?" -- plus one block-against-block op, ``covered_positions``, that
marks every plan of a prune block some incumbent approximates ("which of
these scaled costs does some result plan dominate?").  Around them sit the
block ops of costing (``take``, ``scale_columns``, ``combine_columns``,
``interleave``), the frontier sweep (``pareto_mask``) and the plan index's
``bucket_runs``, which computes a fresh block's log-bucket ids and groups
the block by bucket (with ``bucket_of``, its one-value formula).  This
package provides those primitives as batch operations over contiguous float
storage (structure-of-arrays: one ``array('d')`` column per cost metric plus
an ``array('b')`` liveness bitmap) so that a whole bucket of the plan index
or a whole DP plan list is filtered in a single kernel call instead of a
Python loop of per-pair :func:`repro.costs.dominance.dominates` calls.

Backend selection
-----------------

Two interchangeable backends implement the kernel operations:

* ``python`` -- pure-Python loops over the column arrays, specialised for the
  small metric counts (1-3) the paper uses.  Always available, and the
  reference the backend conformance suite compares against.
* ``numpy`` -- vectorised comparisons over zero-copy ``numpy.frombuffer``
  views of the same column arrays.  Used automatically when numpy is
  importable; falls back to the pure-Python loops for very small blocks where
  ufunc dispatch overhead would dominate.

The backend is auto-selected at import time: ``numpy`` when importable,
``python`` otherwise.  Set the environment variable ``REPRO_KERNEL_BACKEND``
to ``python``, ``numpy`` or ``auto`` to force a choice, or call
:func:`set_backend` / use the :func:`use_backend` context manager at runtime
(the test suite uses the latter to assert that all backends produce
bit-identical results).

All operations use exact IEEE-754 comparisons in every backend, so frontiers
computed through the kernel are byte-identical regardless of the backend.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from types import ModuleType
from typing import Iterator

BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Names accepted by :func:`set_backend` and the environment variable.
BACKEND_NAMES = ("auto", "python", "numpy")


def _normalize(name: str) -> str:
    """Canonical form of a backend name; rejects anything not in BACKEND_NAMES.

    Both resolution paths (the ``REPRO_KERNEL_BACKEND`` environment variable
    and :func:`set_backend`) funnel through this check, so an unknown name
    always fails loudly with the list of valid choices instead of silently
    falling back to a default.
    """
    if not isinstance(name, str):
        raise ValueError(
            f"kernel backend name must be a string, got {type(name).__name__}; "
            f"expected one of {BACKEND_NAMES}"
        )
    normalized = name.strip().lower()
    if normalized not in BACKEND_NAMES:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    return normalized


def _resolve(name: str) -> ModuleType:
    """Import and return the backend module for ``name`` (not ``auto``)."""
    if name == "python":
        from repro.kernel import python_backend

        return python_backend
    if name == "numpy":
        from repro.kernel import numpy_backend

        return numpy_backend
    raise ValueError(
        f"unknown kernel backend {name!r}; expected one of {BACKEND_NAMES}"
    )


def _auto() -> ModuleType:
    """Prefer the numpy backend, fall back to pure Python."""
    try:
        return _resolve("numpy")
    except ImportError:
        return _resolve("python")


def _initial_backend() -> ModuleType:
    requested = os.environ.get(BACKEND_ENV_VAR, "auto")
    if requested.strip() == "":
        # An unset or empty variable means "no preference", i.e. auto.
        return _auto()
    try:
        normalized = _normalize(requested)
    except ValueError as exc:
        raise ValueError(f"{BACKEND_ENV_VAR}: {exc}") from None
    if normalized == "auto":
        return _auto()
    # An explicit request must not be silently downgraded: if numpy is asked
    # for but missing, the ImportError surfaces at import time.
    return _resolve(normalized)


#: The active backend module.  Read it through this attribute on every call
#: (``kernel.ops.leq_slots(...)``) so runtime backend switches take effect.
ops: ModuleType = _initial_backend()


def backend_name() -> str:
    """Name of the active backend (``"python"`` or ``"numpy"``)."""
    return ops.NAME


def set_backend(name: str) -> str:
    """Switch the active backend; returns the name of the previous one.

    ``name`` must be one of :data:`BACKEND_NAMES` (case-insensitive,
    surrounding whitespace ignored); anything else raises ``ValueError``
    without touching the active backend.
    """
    global ops
    normalized = _normalize(name)
    previous = ops.NAME
    ops = _auto() if normalized == "auto" else _resolve(normalized)
    return previous


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Context manager that temporarily switches the kernel backend."""
    previous = set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


__all__ = [
    "BACKEND_ENV_VAR",
    "BACKEND_NAMES",
    "ops",
    "backend_name",
    "set_backend",
    "use_backend",
]
