"""Nested tracing spans with wall time and per-span metric deltas.

Usage::

    from repro.obs import trace

    with trace.span("decode.foreach", n=n):
        ...

While telemetry is disabled, :func:`span` returns one shared no-op
object — no allocation, no clock read — so hot loops can be instrumented
unconditionally.  While enabled, entering a span snapshots the global
metrics registry and the monotonic clock; leaving it emits one ``span``
event carrying the wall time, the metric movement attributable to the
region, the nesting path (``parent/child``), and an ``ok``/``error``
status.  A span whose body raises still closes and records — the
exception propagates untouched.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Sequence

from repro.obs import metrics, sink
from repro.obs.core import STATE

#: Active span stack (single-threaded by design, like the rest of the
#: simulator); reset whenever telemetry is (re-)enabled.
_STACK: List["Span"] = []


def reset_stack(spans: Sequence["Span"] = ()) -> List["Span"]:
    """Replace the active span stack (by default, empty it).

    Returns the dropped spans; :func:`repro.obs.enabled` puts them back.
    """
    dropped = _STACK[:]
    _STACK[:] = spans
    return dropped


#: Installed by a trace-mode :class:`repro.obs.memory.MemoryProfiler`:
#: its ``boundary()`` is called at every span enter/exit *before* the
#: stack changes, so the allocation interval ending at the boundary is
#: charged to the span that was active while the memory moved (the
#: profiler's self-time model).  ``None`` — the overwhelmingly common
#: case — costs one global load per boundary.
_MEM_HOOK = None


def set_memory_hook(hook) -> None:
    """Install (or, with ``None``, remove) the span-boundary memory hook."""
    global _MEM_HOOK
    _MEM_HOOK = hook


def current_path() -> str:
    """``/``-joined names of the active spans (empty when outside any)."""
    return "/".join(s.name for s in _STACK)


def active_span() -> "Span":
    """The innermost live span, or ``None`` outside any.

    The attribution hook of :mod:`repro.obs.profile`: the profiler reads
    the active span's precomputed ``path`` on every profile event, so
    the lookup must stay O(1) — no joining, no allocation.
    """
    return _STACK[-1] if _STACK else None


class _NullSpan:
    """The shared disabled-path span: every operation is a no-op."""

    __slots__ = ()

    def annotate(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Span:
    """One live traced region.  Construct through :func:`span`."""

    __slots__ = ("name", "attrs", "path", "depth", "_start", "_snapshot")

    def __init__(self, name: str, attrs: Dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.path = name
        self.depth = 0
        self._start = 0.0
        self._snapshot: Dict[str, float] = {}

    def annotate(self, **attrs: Any) -> "Span":
        """Attach extra attributes discovered inside the region."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        if _MEM_HOOK is not None:
            _MEM_HOOK.boundary()  # charge the interval so far to the parent
        self.depth = len(_STACK)
        self.path = (
            f"{_STACK[-1].path}/{self.name}" if _STACK else self.name
        )
        _STACK.append(self)
        self._snapshot = metrics.REGISTRY.snapshot()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._start
        if _MEM_HOOK is not None:
            _MEM_HOOK.boundary()  # charge the closing interval to this span
        # Unwind defensively: an inner span abandoned by an exception
        # (e.g. a generator that never resumed) must not wedge the stack.
        while _STACK and _STACK[-1] is not self:
            _STACK.pop()
        if _STACK:
            _STACK.pop()
        record: Dict[str, Any] = {
            "event": "span",
            "name": self.name,
            "path": self.path,
            "depth": self.depth,
            "wall_s": wall,
            "status": "ok" if exc_type is None else "error",
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        if self.attrs:
            record["attrs"] = self.attrs
        delta = metrics.REGISTRY.delta_since(self._snapshot)
        if delta:
            record["metrics"] = delta
        sink.emit(record)
        return False  # never swallow the exception


def span(name: str, **attrs: Any):
    """A traced region, or the shared no-op when telemetry is off."""
    if not STATE.enabled:
        return _NULL_SPAN
    return Span(name, attrs)
