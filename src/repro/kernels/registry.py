"""Backend registry and runtime selection for the kernel interface.

A backend is a :class:`KernelBackend` — a named bundle of kernel
callables sharing one calling convention over flat NumPy arrays (see
:mod:`repro.kernels.reference` for the reference semantics of each
slot).  The registry resolves *which* bundle runs from, in order:

1. an explicit :func:`select_backend` call (``run_all --kernels``);
2. the ``REPRO_KERNELS`` environment variable;
3. ``auto`` — the native backend when one loads, else python.

Resolution is memoized per (selection, environment) pair so the hot
paths pay one dict lookup; a failed native load is also memoized so
``auto`` does not retry the toolchain probe on every call.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.errors import ReproError
from repro.obs import STATE as _OBS
from repro.obs import count as _obs_count

#: Environment variable consulted when no explicit selection was made.
KERNELS_ENV = "REPRO_KERNELS"

#: Recognised selection names.
SELECTIONS = ("auto", "python", "native")


class KernelUnavailableError(ReproError):
    """An explicitly requested kernel backend cannot be loaded."""


@dataclass(frozen=True)
class KernelBackend:
    """One implementation of the kernel interface.

    ``name`` is the selection name (``python`` / ``native``); ``source``
    records which toolchain actually backs it (``python`` or ``cc``) —
    the distinction shows up in telemetry and benchmark records so a run
    is attributable to the exact code that produced it.  The callable
    slots share the flat-array calling convention documented in
    :mod:`repro.kernels.reference`.
    """

    name: str
    source: str
    dinic_solve: Callable[..., Tuple[float, int]]
    residual_reachable: Callable[..., None]
    contract_to: Callable[..., Tuple[int, int]]
    karger_runs: Callable[..., int]
    stoer_wagner: Callable[..., float]
    had_combine_many: Callable[..., Any]
    had_row_products: Callable[..., Any]
    had_decode_one: Callable[..., float]
    meta: Dict[str, Any] = field(default_factory=dict)


#: Explicit selection installed by :func:`select_backend` (None = env/auto).
_SELECTED: Optional[str] = None

#: Memoized resolved backends keyed by effective selection name.
_RESOLVED: Dict[str, KernelBackend] = {}

#: Memoized native-load failure (message), so auto probes the toolchain once.
_NATIVE_FAILURE: Optional[str] = None


def _python_backend() -> KernelBackend:
    backend = _RESOLVED.get("python")
    if backend is None:
        from repro.kernels import reference

        backend = reference.make_backend()
        _RESOLVED["python"] = backend
    return backend


def _native_backend() -> Optional[KernelBackend]:
    """The native backend, or ``None`` (with the failure memoized)."""
    global _NATIVE_FAILURE
    backend = _RESOLVED.get("native")
    if backend is not None:
        return backend
    if _NATIVE_FAILURE is not None:
        return None
    try:
        from repro.kernels import native_cc

        backend = native_cc.load()
    except KernelUnavailableError as exc:
        _NATIVE_FAILURE = str(exc)
        return None
    _RESOLVED["native"] = backend
    return backend


def native_failure() -> Optional[str]:
    """Why the native backend is unavailable (None when it loads)."""
    _native_backend()
    return _NATIVE_FAILURE


def select_backend(name: Optional[str]) -> Optional[str]:
    """Install an explicit backend selection; returns the previous one.

    ``None`` clears the explicit selection (environment / auto rules
    apply again).  The name is validated here but only *resolved* on
    the next :func:`get_backend` call, so selecting ``native`` on a
    machine without a toolchain fails at first use, with a clear error,
    not at argument-parsing time.
    """
    global _SELECTED
    if name is not None and name not in SELECTIONS:
        raise KernelUnavailableError(
            f"unknown kernel backend {name!r}; choose from {SELECTIONS}"
        )
    previous = _SELECTED
    _SELECTED = name
    return previous


def selection_order() -> Tuple[str, str]:
    """The effective selection and where it came from.

    Returns ``(name, origin)`` with origin one of ``flag`` (explicit
    :func:`select_backend`), ``env`` (``REPRO_KERNELS``), or
    ``default``.
    """
    if _SELECTED is not None:
        return _SELECTED, "flag"
    raw = os.environ.get(KERNELS_ENV, "").strip().lower()
    if raw:
        if raw not in SELECTIONS:
            raise KernelUnavailableError(
                f"{KERNELS_ENV} must be one of {SELECTIONS}, got {raw!r}"
            )
        return raw, "env"
    return "auto", "default"


def get_backend() -> KernelBackend:
    """Resolve the effective backend for this call.

    ``auto`` prefers native and silently degrades to python; explicit
    ``native`` (flag or environment) raises
    :class:`KernelUnavailableError` when no native toolchain loads —
    a machine the operator believes is running compiled kernels must
    never quietly run interpreted ones.
    """
    name, origin = selection_order()
    if name == "python":
        return _python_backend()
    if name == "native":
        backend = _native_backend()
        if backend is None:
            raise KernelUnavailableError(
                f"kernel backend 'native' requested via {origin} but no "
                f"native toolchain is available: {_NATIVE_FAILURE}"
            )
        return backend
    backend = _native_backend()
    return backend if backend is not None else _python_backend()


def backend_name() -> str:
    """Name of the backend :func:`get_backend` resolves to right now."""
    try:
        return get_backend().name
    except KernelUnavailableError:
        return "unavailable"


def available_backends() -> Dict[str, str]:
    """Map of loadable backend name -> source toolchain."""
    out = {"python": _python_backend().source}
    native = _native_backend()
    if native is not None:
        out["native"] = native.source
    return out


def mark_use(backend: KernelBackend) -> None:
    """Record one kernel dispatch on the obs counter (gated, cheap)."""
    if _OBS.enabled:
        _obs_count(f"kernels.backend.{backend.name}")


@contextmanager
def using_backend(name: Optional[str]) -> Iterator[KernelBackend]:
    """Scoped :func:`select_backend` — restores the previous selection."""
    previous = select_backend(name)
    try:
        yield get_backend()
    finally:
        select_backend(previous)


def _reset_for_tests() -> None:
    """Drop all memoized state (selection, backends, failure memo)."""
    global _SELECTED, _NATIVE_FAILURE
    _SELECTED = None
    _NATIVE_FAILURE = None
    _RESOLVED.clear()
