"""Span-attributed profiler: where wall time goes *inside* each span.

Spans (:mod:`repro.obs.trace`) say how long a region took; this module
says which functions the time went to, attributed to the span that was
active when the time was spent.  Two modes:

* ``deterministic`` (default) — a :func:`sys.setprofile` hook charging
  *self time* between consecutive profile events to the function on top
  of the call stack under the currently active span path.  Exact call
  counts, significant slowdown (every call/return pays the hook);
* ``sampling`` — a daemon thread that snapshots the main thread's stack
  every ``interval`` seconds and counts samples per (span path,
  function).  Near-zero overhead, statistical counts.

The module is import-safe for hot paths: nothing is installed until
:meth:`SpanProfiler.start`, so importing it costs exactly nothing on
the telemetry-disabled path.

Records land in the telemetry stream as ``profile`` events (one per
(span, function) aggregate) via :meth:`SpanProfiler.emit_events`, and
``scripts/trace_report.py`` renders them as a per-span hot-function
table.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ObsError
from repro.obs import sink as _sink
from repro.obs import trace as _trace

#: Profiler modes.
DETERMINISTIC = "deterministic"
SAMPLING = "sampling"

#: Default cap on emitted / rendered records (hottest first).
DEFAULT_TOP = 30

#: Default sampling interval in seconds.
DEFAULT_INTERVAL = 0.002


def _func_key(filename: str, name: str) -> str:
    """Compact ``path/file.py:func`` label (last two path components)."""
    parts = filename.replace("\\", "/").rsplit("/", 2)
    short = "/".join(parts[-2:]) if len(parts) > 1 else filename
    return f"{short}:{name}"


def _span_path() -> str:
    """Path of the enclosing span, or ``""`` outside any span."""
    span = _trace.active_span()
    return span.path if span is not None else ""


class SpanProfiler:
    """Aggregate per-function time under the enclosing obs span.

    Usage::

        profiler = SpanProfiler()           # or mode="sampling"
        with profiler:
            run_experiments()
        profiler.emit_events()              # -> telemetry "profile" events

    Attribution rule: time is charged to the span path that is active at
    the moment it is *spent* (deterministic mode: between two profile
    events; sampling mode: at the sample instant).  A function whose
    body spans a span boundary therefore splits naturally across both
    spans.
    """

    def __init__(
        self,
        mode: str = DETERMINISTIC,
        interval: float = DEFAULT_INTERVAL,
    ):
        if mode not in (DETERMINISTIC, SAMPLING):
            raise ObsError(f"unknown profiler mode {mode!r}")
        if interval <= 0:
            raise ObsError("sampling interval must be positive")
        self.mode = mode
        self.interval = interval
        self.running = False
        #: (span path, func key) -> [calls-or-samples, seconds]
        self._data: Dict[Tuple[str, str], List[float]] = {}
        self._fstack: List[str] = []
        self._last = 0.0
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._main_ident: Optional[int] = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "SpanProfiler":
        """Install the hook (or start the sampling thread)."""
        if self.running:
            raise ObsError("profiler already running")
        self.running = True
        if self.mode == DETERMINISTIC:
            self._fstack.clear()
            self._last = time.perf_counter()
            sys.setprofile(self._handle)
        else:
            self._main_ident = threading.get_ident()
            self._stop_event.clear()
            self._thread = threading.Thread(
                target=self._sample_loop, daemon=True, name="obs-profiler"
            )
            self._thread.start()
        return self

    def stop(self) -> "SpanProfiler":
        """Uninstall the hook; stopping an idle profiler is a no-op."""
        if not self.running:
            return self
        if self.mode == DETERMINISTIC:
            sys.setprofile(None)
            self._charge(time.perf_counter())
            self._fstack.clear()
        else:
            self._stop_event.set()
            if self._thread is not None:
                self._thread.join(timeout=max(1.0, 50 * self.interval))
                self._thread = None
        self.running = False
        return self

    def __enter__(self) -> "SpanProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> bool:
        self.stop()
        return False

    # -- deterministic hook ---------------------------------------------

    def _charge(self, now: float) -> None:
        if self._fstack:
            cell = self._data.get((_span_path(), self._fstack[-1]))
            if cell is not None:
                cell[1] += now - self._last
            else:
                self._data[(_span_path(), self._fstack[-1])] = [
                    0.0,
                    now - self._last,
                ]
        self._last = now

    def _handle(self, frame, event: str, arg: Any) -> None:
        now = time.perf_counter()
        self._charge(now)
        if event == "call":
            code = frame.f_code
            key = _func_key(code.co_filename, code.co_name)
            self._fstack.append(key)
            cell = self._data.setdefault((_span_path(), key), [0.0, 0.0])
            cell[0] += 1
        elif event == "c_call":
            key = f"<built-in>:{getattr(arg, '__qualname__', repr(arg))}"
            self._fstack.append(key)
            cell = self._data.setdefault((_span_path(), key), [0.0, 0.0])
            cell[0] += 1
        elif event in ("return", "c_return", "c_exception"):
            if self._fstack:
                self._fstack.pop()
        # exclude the hook's own cost from the next charge
        self._last = time.perf_counter()

    # -- sampling thread ------------------------------------------------

    def _sample_loop(self) -> None:
        while not self._stop_event.wait(self.interval):
            frames = sys._current_frames()
            frame = frames.get(self._main_ident)
            if frame is None:
                continue
            code = frame.f_code
            key = _func_key(code.co_filename, code.co_name)
            cell = self._data.setdefault((_span_path(), key), [0.0, 0.0])
            cell[0] += 1
            cell[1] += self.interval

    # -- results --------------------------------------------------------

    def records(self, top: Optional[int] = DEFAULT_TOP) -> List[Dict[str, Any]]:
        """Hottest (span, function) aggregates, descending by time.

        ``calls`` is the exact call count in deterministic mode and the
        number of stack samples in sampling mode (``total_s`` is then an
        estimate: samples x interval).
        """
        rows = [
            {
                "span": span,
                "func": func,
                "calls": int(cell[0]),
                "total_s": cell[1],
            }
            for (span, func), cell in self._data.items()
        ]
        rows.sort(key=lambda r: (-r["total_s"], r["span"], r["func"]))
        return rows if top is None else rows[:top]

    def emit_events(self, top: Optional[int] = DEFAULT_TOP) -> int:
        """Emit one ``profile`` telemetry event per aggregate record.

        Returns the number of records emitted (0 while telemetry is
        disabled — :func:`repro.obs.sink.event` drops them).
        """
        rows = self.records(top=top)
        for row in rows:
            _sink.event("profile", mode=self.mode, **row)
        return len(rows)

    def reset(self) -> None:
        """Drop all aggregates (the profiler may keep running)."""
        self._data.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanProfiler(mode={self.mode!r}, running={self.running}, "
            f"records={len(self._data)})"
        )
