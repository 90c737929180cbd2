"""Backend selection and environment resolution tests for :mod:`repro.kernel`.

Op-level parity across backends lives in ``test_backend_conformance.py``
(one parametrized property net over every available backend); this module
covers the selection machinery only: runtime switching, name normalization
and the ``REPRO_KERNEL_BACKEND`` environment lowering.
"""

import pytest

from repro import kernel

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - depends on environment
    HAVE_NUMPY = False


class TestBackendSelection:
    def test_active_backend_has_a_known_name(self):
        assert kernel.backend_name() in ("python", "numpy")

    def test_use_backend_switches_and_restores(self):
        original = kernel.backend_name()
        with kernel.use_backend("python"):
            assert kernel.backend_name() == "python"
        assert kernel.backend_name() == original

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError):
            kernel.set_backend("fortran")

    def test_rejection_lists_the_valid_names_and_keeps_the_backend(self):
        original = kernel.backend_name()
        with pytest.raises(ValueError, match=r"\('auto', 'python', 'numpy'\)"):
            kernel.set_backend("fortran")
        assert kernel.backend_name() == original

    def test_non_string_backend_is_rejected(self):
        with pytest.raises(ValueError, match="must be a string"):
            kernel.set_backend(None)

    def test_backend_names_are_normalized(self):
        # set_backend accepts the same spellings as the environment variable.
        original = kernel.backend_name()
        try:
            previous = kernel.set_backend("  Python\n")
            assert previous == original
            assert kernel.backend_name() == "python"
        finally:
            kernel.set_backend(original)

    def test_auto_prefers_numpy(self):
        with kernel.use_backend("auto"):
            expected = "numpy" if HAVE_NUMPY else "python"
            assert kernel.backend_name() == expected

    def test_use_backend_restores_when_the_body_raises(self):
        original = kernel.backend_name()
        with pytest.raises(RuntimeError, match="body failed"):
            with kernel.use_backend("python"):
                raise RuntimeError("body failed")
        assert kernel.backend_name() == original


class TestEnvironmentResolution:
    """The ``REPRO_KERNEL_BACKEND`` resolution path must never fall through
    silently: unknown values fail at import time, naming the variable and the
    valid choices."""

    def test_unknown_value_is_rejected_with_candidates(self, monkeypatch):
        monkeypatch.setenv(kernel.BACKEND_ENV_VAR, "bogus")
        with pytest.raises(ValueError, match=kernel.BACKEND_ENV_VAR):
            kernel._initial_backend()
        with pytest.raises(ValueError, match=r"\('auto', 'python', 'numpy'\)"):
            kernel._initial_backend()

    def test_case_and_whitespace_are_normalized(self, monkeypatch):
        monkeypatch.setenv(kernel.BACKEND_ENV_VAR, "  PYTHON ")
        assert kernel._initial_backend().NAME == "python"

    def test_empty_value_means_auto(self, monkeypatch):
        monkeypatch.setenv(kernel.BACKEND_ENV_VAR, "   ")
        expected = "numpy" if HAVE_NUMPY else "python"
        assert kernel._initial_backend().NAME == expected

    def test_unknown_value_fails_at_import_time(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-c", "import repro.kernel"],
            capture_output=True,
            text=True,
            env={
                **__import__("os").environ,
                kernel.BACKEND_ENV_VAR: "fortran",
            },
        )
        assert completed.returncode != 0
        assert kernel.BACKEND_ENV_VAR in completed.stderr
        assert "fortran" in completed.stderr
        assert f"expected one of {kernel.BACKEND_NAMES}" in completed.stderr


class TestPurePythonPath:
    def test_a_python_backend_session_never_imports_numpy(self):
        import os
        import subprocess
        import sys

        code = (
            "import sys\n"
            "from repro.api import OptimizeRequest, open_session\n"
            "open_session(OptimizeRequest(workload='gen:clique:4:0', "
            "algorithm='iama', levels=3, scale='tiny')).run()\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
            "print('ok')\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, kernel.BACKEND_ENV_VAR: "python"},
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "ok"
