"""Shared kernel-test hygiene: clean selection and registry state."""

import pytest

from repro import obs
from repro.kernels import registry


@pytest.fixture(autouse=True)
def clean_kernel_state(monkeypatch):
    # Kernel tests select backends explicitly; an ambient REPRO_KERNELS
    # (the CI kernels matrix leg exports it) would skew selections.
    monkeypatch.delenv("REPRO_KERNELS", raising=False)
    registry._reset_for_tests()
    obs.disable()
    obs.reset_metrics()
    yield
    registry._reset_for_tests()
    obs.disable()
    obs.reset_metrics()


def native_backend_or_skip():
    """The native backend, or skip the test on toolchain-less machines."""
    try:
        from repro.kernels import native_cc

        return native_cc.load()
    except registry.KernelUnavailableError as exc:
        pytest.skip(f"no native kernel toolchain: {exc}")
