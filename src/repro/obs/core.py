"""Global observability switch.

The entire telemetry pipeline — metric mirroring, tracing spans, and the
JSONL event sink — hangs off one module-level :data:`STATE` object.  Hot
code guards every instrumentation site with ``if STATE.enabled:``, a
single attribute load plus branch, so the disabled path costs nothing
measurable.

Local resource accounting is *not* behind this switch: the oracle
query counters and communication bit ledgers keep their own always-on
registries, because query counts and wire bits are the quantities the
reproduced theorems are about (see DESIGN.md, "Observability").  The
switch only gates the cross-cutting telemetry that aggregates those
numbers into one namespace and records timing.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional


class ObsState:
    """Mutable singleton holding the enable flag and the active sink."""

    __slots__ = ("enabled", "sink")

    def __init__(self) -> None:
        self.enabled: bool = False
        self.sink = None  # duck-typed: .write(dict) / .flush() / .close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ObsState(enabled={self.enabled}, sink={self.sink!r})"


#: The one switch every instrumentation site checks.
STATE = ObsState()


def enable(sink=None) -> None:
    """Turn telemetry on, optionally installing an event sink.

    A previously installed sink is kept when ``sink`` is None, so
    ``enable()`` / ``disable()`` can bracket hot sections without
    re-opening files.
    """
    from repro.obs import trace

    if sink is not None:
        STATE.sink = sink
    trace.reset_stack()
    STATE.enabled = True


def disable() -> None:
    """Turn telemetry off.  The sink (if any) stays installed but idle."""
    STATE.enabled = False


def is_enabled() -> bool:
    """Whether the telemetry pipeline is live."""
    return STATE.enabled


@contextmanager
def enabled(sink=None) -> Iterator[Optional[object]]:
    """Scoped ``enable()``: restores the switch, sink and span stack on exit.

    Yields the active sink so tests can do::

        with obs.enabled(ListSink()) as sink:
            ...
            assert sink.records
    """
    from repro.obs import trace

    prev_enabled, prev_sink = STATE.enabled, STATE.sink
    prev_stack = trace.reset_stack()
    enable(sink)
    try:
        yield STATE.sink
    finally:
        STATE.enabled = prev_enabled
        STATE.sink = prev_sink
        trace.reset_stack(prev_stack)
