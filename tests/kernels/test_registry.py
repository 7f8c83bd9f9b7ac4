"""Backend registry: selection order, degradation, and obs reporting."""

import pytest

from repro import obs
from repro.kernels import (
    KernelUnavailableError,
    available_backends,
    backend_name,
    get_backend,
    mark_use,
    select_backend,
    selection_order,
    using_backend,
)
from repro.kernels import registry


class TestSelectionOrder:
    def test_default_is_auto(self):
        assert selection_order() == ("auto", "default")

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "python")
        assert selection_order() == ("python", "env")

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "python")
        select_backend("auto")
        assert selection_order() == ("auto", "flag")

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "fortran")
        with pytest.raises(KernelUnavailableError):
            selection_order()

    def test_invalid_selection_raises(self):
        with pytest.raises(KernelUnavailableError):
            select_backend("fortran")

    def test_select_returns_previous(self):
        assert select_backend("python") is None
        assert select_backend("auto") == "python"
        assert select_backend(None) == "auto"

    def test_using_backend_restores(self):
        select_backend("python")
        with using_backend("auto"):
            assert selection_order() == ("auto", "flag")
        assert selection_order() == ("python", "flag")
        # ... even when the body raises.
        with pytest.raises(RuntimeError):
            with using_backend("auto"):
                raise RuntimeError("boom")
        assert selection_order() == ("python", "flag")


class TestResolution:
    def test_python_backend_resolves(self):
        select_backend("python")
        backend = get_backend()
        assert backend.name == "python"
        assert backend.source == "python"

    def test_python_always_available(self):
        assert available_backends()["python"] == "python"

    def test_auto_degrades_silently_on_native_import_failure(self, monkeypatch):
        """``auto`` falls back to the python reference, with no error."""
        from repro.kernels import native_cc

        def broken_load():
            raise KernelUnavailableError("forced import failure (test)")

        monkeypatch.setattr(native_cc, "load", broken_load)
        registry._reset_for_tests()
        backend = get_backend()  # auto selection: must not raise
        assert backend.name == "python"
        assert backend_name() == "python"
        assert registry.native_failure() is not None
        assert "forced import failure" in registry.native_failure()
        assert "native" not in available_backends()

    def test_explicit_native_raises_on_import_failure(self, monkeypatch):
        from repro.kernels import native_cc

        def broken_load():
            raise KernelUnavailableError("forced import failure (test)")

        monkeypatch.setattr(native_cc, "load", broken_load)
        registry._reset_for_tests()
        select_backend("native")
        with pytest.raises(KernelUnavailableError, match="via flag"):
            get_backend()
        assert backend_name() == "unavailable"

    def test_explicit_native_via_env_raises_on_import_failure(
        self, monkeypatch
    ):
        from repro.kernels import native_cc

        def broken_load():
            raise KernelUnavailableError("forced import failure (test)")

        monkeypatch.setattr(native_cc, "load", broken_load)
        registry._reset_for_tests()
        monkeypatch.setenv("REPRO_KERNELS", "native")
        with pytest.raises(KernelUnavailableError, match="via env"):
            get_backend()

    def test_native_failure_is_memoized(self, monkeypatch):
        from repro.kernels import native_cc

        calls = []

        def broken_load():
            calls.append(1)
            raise KernelUnavailableError("forced import failure (test)")

        monkeypatch.setattr(native_cc, "load", broken_load)
        registry._reset_for_tests()
        get_backend()
        get_backend()
        get_backend()
        assert len(calls) == 1  # the toolchain probe ran exactly once


class TestObsReporting:
    def test_mark_use_counts_backend(self):
        select_backend("python")
        backend = get_backend()
        obs.enable()
        try:
            mark_use(backend)
            mark_use(backend)
        finally:
            obs.disable()
        counters = obs.REGISTRY.as_dict()["counters"]
        assert counters["kernels.backend.python"] == 2

    def test_mark_use_gated_when_disabled(self):
        select_backend("python")
        mark_use(get_backend())
        counters = obs.REGISTRY.as_dict()["counters"]
        assert counters.get("kernels.backend.python", 0) == 0
