"""Measured-space observability: bytes the process actually holds.

The paper's headline results are *space* lower bounds, and PRs 2-3
meter the theoretical side — ``size_bits()``, wire bits, query
charges (:mod:`repro.sketch.serialization` charges explicit, documented
bit costs).  Nothing so far measures the bytes the interpreter is
actually resident for.  This module closes that gap with three
instruments that share one lifecycle:

* :class:`MemoryProfiler` — mirrors :class:`repro.obs.profile.
  SpanProfiler`'s self-time model for *allocation*: in ``trace`` mode a
  hook fires at every span boundary (:func:`repro.obs.trace.
  set_memory_hook`), charging the tracemalloc net/peak delta since the
  previous boundary to the span path that was active over the interval.
  In both modes a daemon thread samples the process RSS
  (``/proc/self/status`` ``VmRSS``/``VmHWM``, falling back to
  :func:`resource.getrusage`) at a configurable cadence.  Stopped, the
  profiler costs exactly one ``is None`` branch per span boundary.
* :func:`deep_footprint` — a structure-aware resident-bytes walker for
  the core data structures: CSR snapshots (numpy array payloads),
  sketches (measured bytes *alongside* the theoretical
  ``size_bits()``, so every observation carries a
  measured-bytes/theoretical-bits ratio), and the shared-memory
  :class:`~repro.parallel.shmipc.ResultArena`.
* :func:`register_space_bounds` — :class:`~repro.obs.bounds.
  SpaceBoundSpec` entries for the Thm 1.1 / 1.2 / 1.3 envelopes,
  certifying the *measured* bytes a table prints (``sketch_bytes`` in
  E1b/E2b, ``oracle_bytes`` in E3/E3b, scaled to bits) with the same
  slack semantics as the bit-bound checks.  ``run_all --memory
  --strict-bounds`` enforces them.

Everything lands in the normal telemetry flow as ``memory`` events
(``kind`` ``span`` / ``rss`` / ``footprint``), which the live bus tees
to the aggregator, the SLO engine (``mem:`` / ``rss:`` rules), and the
Prometheus exposition (``repro_memory_*`` gauges).
"""

from __future__ import annotations

import math
import os
import sys
import threading
import time
import tracemalloc
import weakref
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.errors import ObsError
from repro.obs import bounds as _bounds
from repro.obs import metrics as _metrics
from repro.obs import sink as _sink
from repro.obs import trace as _trace

#: Profiler modes: ``sample`` tracks RSS only (near-zero overhead);
#: ``trace`` additionally attributes tracemalloc deltas to span paths.
SAMPLE = "sample"
TRACE = "trace"
MODES = (SAMPLE, TRACE)

#: Default cap on emitted / rendered span-allocation records.
DEFAULT_TOP = 30

#: Default RSS sampling interval in seconds.
DEFAULT_INTERVAL = 0.05


# ----------------------------------------------------------------------
# RSS readers.
# ----------------------------------------------------------------------

try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):  # pragma: no cover
    _PAGE_SIZE = 4096


def rss_bytes() -> int:
    """Current resident-set size in bytes, as cheaply as possible.

    Reads ``/proc/self/statm`` (one short line, no parsing of the full
    status table) so it is safe on a heartbeat cadence; falls back to
    ``resource.getrusage`` peak RSS where procfs is unavailable.
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return _getrusage_bytes()


def _getrusage_bytes() -> int:
    import resource

    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak) * (1 if sys.platform == "darwin" else 1024)


def read_rss() -> Dict[str, Any]:
    """One RSS observation: ``rss_bytes``, ``hwm_bytes``, ``source``.

    ``/proc/self/status`` carries both the current resident set
    (``VmRSS``) and the kernel's high-water mark (``VmHWM``); the
    ``getrusage`` fallback only knows the peak, so it reports that for
    both fields.
    """
    try:
        rss = hwm = None
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmRSS:"):
                    rss = int(line.split()[1]) * 1024
                elif line.startswith(b"VmHWM:"):
                    hwm = int(line.split()[1]) * 1024
                if rss is not None and hwm is not None:
                    break
        if rss is None:
            raise ValueError("no VmRSS line")
        return {
            "rss_bytes": rss,
            "hwm_bytes": hwm if hwm is not None else rss,
            "source": "procfs",
        }
    except (OSError, IndexError, ValueError):
        peak = _getrusage_bytes()
        return {"rss_bytes": peak, "hwm_bytes": peak, "source": "getrusage"}


# ----------------------------------------------------------------------
# Deep footprint walking.
# ----------------------------------------------------------------------


def deep_sizeof(obj: Any, _seen: Optional[set] = None) -> int:
    """Recursive measured bytes of one object graph.

    Containers, ``__dict__``-ed and ``__slots__``-ed objects recurse;
    numpy arrays count their data payload (``nbytes``) rather than the
    view header; every object is counted once per walk (an ``id`` memo
    handles shared references and cycles).  Deterministic for a fixed
    construction path, which is what lets footprints ride the
    serial == parallel telemetry contract.
    """
    seen = _seen if _seen is not None else set()
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):  # numpy array (or anything array-like)
        return int(nbytes)
    try:
        total = sys.getsizeof(obj)
    except TypeError:  # pragma: no cover - exotic C objects
        return 0
    if isinstance(obj, dict):
        for key, value in obj.items():
            total += deep_sizeof(key, seen)
            total += deep_sizeof(value, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            total += deep_sizeof(item, seen)
    elif not isinstance(obj, (str, bytes, bytearray, int, float, complex, bool)):
        attrs = getattr(obj, "__dict__", None)
        if attrs is not None and id(attrs) not in seen:
            # Instance dicts use CPython's key-sharing layout, whose
            # getsizeof amortises the shared key table over however
            # many instances happen to be alive — nondeterministic
            # across worker counts.  Price a materialised (combined)
            # copy instead: a pure function of the entry count.
            seen.add(id(attrs))
            total += sys.getsizeof(dict(attrs))
            for key, value in attrs.items():
                total += deep_sizeof(key, seen)
                total += deep_sizeof(value, seen)
        for cls in type(obj).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                value = getattr(obj, slot, None)
                if value is not None:
                    total += deep_sizeof(value, seen)
    return total


def _is_sketch(obj: Any) -> bool:
    return callable(getattr(obj, "size_bits", None)) and hasattr(obj, "model")


def _is_csr(obj: Any) -> bool:
    return hasattr(obj, "_indptr") and hasattr(obj, "_rindptr") and hasattr(
        obj, "_labels"
    )


def _is_arena(obj: Any) -> bool:
    return hasattr(obj, "_shm") and hasattr(obj, "slot_size")


def deep_footprint(
    obj: Any,
    label: Optional[str] = None,
    theoretical_bits: Optional[int] = None,
) -> Dict[str, Any]:
    """Measured resident bytes of one core structure, with context.

    Returns a flat record: ``structure`` (``sketch`` / ``csr_graph`` /
    ``arena`` / ``object``), ``type``, ``measured_bytes``, and — for
    sketches — ``theoretical_bits`` plus ``bytes_per_bit``, the
    measured-bytes/theoretical-bits ratio that says how many resident
    bytes the implementation pays per information-theoretic bit
    (:func:`repro.sketch.serialization.graph_size_bits` prices the
    theoretical side).  ``theoretical_bits`` may be passed by callers
    that already know it (the :meth:`~repro.sketch.base.CutSketch.
    _obs_size` hook does, avoiding a recursive ``size_bits()`` call).
    """
    record: Dict[str, Any] = {
        "structure": "object",
        "type": type(obj).__name__,
        "measured_bytes": 0,
    }
    if label is not None:
        record["label"] = label
    if _is_arena(obj):
        record["structure"] = "arena"
        record["measured_bytes"] = int(obj._shm.size)
        record["slots"] = int(getattr(obj, "slots", 0))
        record["slot_size"] = int(obj.slot_size)
        return record
    if _is_csr(obj):
        record["structure"] = "csr_graph"
        record["measured_bytes"] = deep_sizeof(obj)
        arrays = 0
        for name in ("_tails", "_heads", "_weights", "_indptr",
                     "_rindptr", "_rindices", "_rweights"):
            arr = getattr(obj, name, None)
            if arr is not None:
                arrays += int(getattr(arr, "nbytes", 0))
        record["array_bytes"] = arrays
        dense = getattr(obj, "_dense", None)
        if dense is not None:
            record["dense_bytes"] = sum(
                int(getattr(a, "nbytes", 0)) for a in dense
            )
        residual = getattr(obj, "_residual", None)
        if residual is not None:
            record["residual_bytes"] = deep_sizeof(residual)
        return record
    record["measured_bytes"] = deep_sizeof(obj)
    if _is_sketch(obj):
        record["structure"] = "sketch"
        if theoretical_bits is None:
            try:
                theoretical_bits = int(obj.size_bits())
            except Exception:
                theoretical_bits = None
    if theoretical_bits is not None:
        record["theoretical_bits"] = int(theoretical_bits)
        if theoretical_bits > 0:
            record["bytes_per_bit"] = (
                record["measured_bytes"] / theoretical_bits
            )
    return record


# ----------------------------------------------------------------------
# The profiler.
# ----------------------------------------------------------------------

#: The active profiler (at most one), consulted by the footprint hooks.
_ACTIVE: Optional["MemoryProfiler"] = None


def active() -> Optional["MemoryProfiler"]:
    """The running profiler, or ``None`` (the footprint hooks' guard)."""
    return _ACTIVE


class MemoryProfiler:
    """Span-attributed allocation tracking plus background RSS sampling.

    Usage::

        profiler = MemoryProfiler(mode="trace")
        with profiler:
            run_experiments()
        profiler.emit_events()          # -> telemetry "memory" events

    Attribution rule (``trace`` mode), mirroring
    :class:`~repro.obs.profile.SpanProfiler`'s self-time model: the
    tracemalloc movement between two consecutive span boundaries is
    charged to the span path active over that interval — entering a
    child span first charges the parent, leaving the child charges the
    child.  ``net_bytes`` may go negative (frees); ``peak_bytes`` is
    the largest within-interval high-water excursion seen for the path.

    The RSS sampler runs in both modes: a daemon thread reads
    :func:`read_rss` every ``interval`` seconds and keeps the peak.
    Nothing is installed until :meth:`start`, so a constructed-but-idle
    profiler costs nothing.
    """

    def __init__(self, mode: str = SAMPLE, interval: float = DEFAULT_INTERVAL):
        if mode not in MODES:
            raise ObsError(f"unknown memory profiler mode {mode!r}")
        if interval <= 0:
            raise ObsError("rss sampling interval must be positive")
        self.mode = mode
        self.interval = interval
        self.running = False
        #: span path -> [boundaries, net bytes, peak interval bytes]
        self._spans: Dict[str, List[float]] = {}
        self._last_traced = 0
        self._started_tracemalloc = False
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        #: Objects already footprinted (per process; survives fork).
        self._seen: "weakref.WeakSet" = weakref.WeakSet()
        self.footprints: List[Dict[str, Any]] = []
        self.rss_current = 0
        self.rss_peak = 0
        self.rss_samples = 0
        self.rss_source = "unknown"

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "MemoryProfiler":
        """Install the boundary hook and start the RSS sampler."""
        global _ACTIVE
        if self.running:
            raise ObsError("memory profiler already running")
        if _ACTIVE is not None:
            raise ObsError("another memory profiler is already active")
        self.running = True
        _ACTIVE = self
        if self.mode == TRACE:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True
            self._last_traced = tracemalloc.get_traced_memory()[0]
            _trace.set_memory_hook(self)
        self._sample_rss()
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._sample_loop, daemon=True, name="obs-memory"
        )
        self._thread.start()
        return self

    def stop(self) -> "MemoryProfiler":
        """Uninstall everything; stopping an idle profiler is a no-op."""
        global _ACTIVE
        if not self.running:
            return self
        if self.mode == TRACE:
            self.boundary()  # charge the tail interval
            _trace.set_memory_hook(None)
            if self._started_tracemalloc:
                tracemalloc.stop()
                self._started_tracemalloc = False
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join(timeout=max(1.0, 50 * self.interval))
            self._thread = None
        self._sample_rss()
        self.running = False
        if _ACTIVE is self:
            _ACTIVE = None
        return self

    def __enter__(self) -> "MemoryProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> bool:
        self.stop()
        return False

    # -- span boundary hook (trace mode) --------------------------------

    def boundary(self) -> None:
        """Charge the allocation interval ending now to the active span.

        Called by :class:`repro.obs.trace.Span` at every enter/exit
        (before the stack changes, so the charge lands on the span that
        was active while the memory moved).
        """
        current, peak = tracemalloc.get_traced_memory()
        span = _trace.active_span()
        path = span.path if span is not None else ""
        cell = self._spans.get(path)
        if cell is None:
            cell = self._spans[path] = [0, 0, 0]
        cell[0] += 1
        cell[1] += current - self._last_traced
        excursion = peak - self._last_traced
        if excursion > cell[2]:
            cell[2] = excursion
        tracemalloc.reset_peak()
        self._last_traced = current

    # -- RSS sampling ---------------------------------------------------

    def _sample_rss(self) -> None:
        info = read_rss()
        self.rss_current = info["rss_bytes"]
        self.rss_source = info["source"]
        high = max(info["rss_bytes"], info["hwm_bytes"])
        if high > self.rss_peak:
            self.rss_peak = high
        self.rss_samples += 1

    def _sample_loop(self) -> None:
        while not self._stop_event.wait(self.interval):
            self._sample_rss()

    # -- results --------------------------------------------------------

    def records(self, top: Optional[int] = DEFAULT_TOP) -> List[Dict[str, Any]]:
        """Per-span allocation aggregates, largest peak first."""
        rows = [
            {
                "span": path,
                "boundaries": int(cell[0]),
                "net_bytes": int(cell[1]),
                "peak_bytes": int(cell[2]),
            }
            for path, cell in self._spans.items()
        ]
        rows.sort(key=lambda r: (-r["peak_bytes"], -r["net_bytes"], r["span"]))
        return rows if top is None else rows[:top]

    def rss_record(self) -> Dict[str, Any]:
        """The current RSS state as one JSON-friendly record."""
        return {
            "rss_bytes": self.rss_current,
            "rss_peak_bytes": self.rss_peak,
            "samples": self.rss_samples,
            "source": self.rss_source,
        }

    def checkpoint(self) -> Dict[str, Any]:
        """Sample RSS on the calling thread, update gauges, emit ``rss``.

        ``run_all --memory`` calls this between experiments so the live
        bus / Prometheus exposition see fresh numbers mid-run; emission
        happens on the main thread, never from the sampler (the JSONL
        sink is not written concurrently).
        """
        self._sample_rss()
        record = self.rss_record()
        _metrics.set_gauge("memory.rss_bytes", record["rss_bytes"])
        _metrics.set_gauge("memory.rss_peak_bytes", record["rss_peak_bytes"])
        # Not sink.event(): the payload's own "kind" field would collide
        # with that helper's positional parameter (the bounds.py pattern).
        _sink.emit({"event": "memory", "kind": "rss", **record})
        return record

    def emit_events(self, top: Optional[int] = DEFAULT_TOP) -> int:
        """Emit one ``memory`` event per span aggregate, plus the RSS.

        Returns the number of records emitted (0 while telemetry is
        disabled — the sink drops them).  Footprint events are emitted
        at observation time by :func:`observe_footprint`, not here.
        """
        rows = self.records(top=top)
        for row in rows:
            _sink.emit(
                {"event": "memory", "kind": "span", "mode": self.mode, **row}
            )
        self.checkpoint()
        return len(rows) + 1

    def reset(self) -> None:
        """Drop span aggregates and footprints (the profiler may keep running)."""
        self._spans.clear()
        self.footprints.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryProfiler(mode={self.mode!r}, running={self.running}, "
            f"spans={len(self._spans)}, rss_peak={self.rss_peak})"
        )


@contextmanager
def profiling(
    mode: str = SAMPLE, interval: float = DEFAULT_INTERVAL
) -> Iterator[MemoryProfiler]:
    """Scoped profiler: starts on entry, stops (but does not emit) on exit."""
    profiler = MemoryProfiler(mode=mode, interval=interval)
    profiler.start()
    try:
        yield profiler
    finally:
        profiler.stop()


def observe_footprint(
    obj: Any,
    label: Optional[str] = None,
    metric: Optional[str] = None,
    theoretical_bits: Optional[int] = None,
) -> Optional[Dict[str, Any]]:
    """Footprint one structure if a profiler is active (else no-op).

    The instrumentation hooks (:meth:`repro.sketch.base.CutSketch.
    _obs_size`, CSR snapshot construction, the local-query oracle) call
    this unconditionally; with no active profiler it is one global load
    and an ``is None`` branch.  Each object is measured at most once
    (weak-ref dedup), the measured bytes feed the ``metric`` histogram
    (default ``memory.sketch_bytes`` for sketches,
    ``memory.<structure>_bytes`` otherwise), and one
    ``memory``/``footprint`` event is emitted.
    """
    profiler = _ACTIVE
    if profiler is None:
        return None
    try:
        if obj in profiler._seen:
            return None
        profiler._seen.add(obj)  # before walking: breaks size_bits recursion
    except TypeError:  # not weak-referenceable: measure every time
        pass
    record = deep_footprint(obj, label=label, theoretical_bits=theoretical_bits)
    name = metric
    if name is None:
        if record["structure"] == "sketch":
            name = "memory.sketch_bytes"
        else:
            name = f"memory.{record['structure']}_bytes"
    record["metric"] = name
    _metrics.observe(name, record["measured_bytes"])
    profiler.footprints.append(record)
    _sink.emit({"event": "memory", "kind": "footprint", **record})
    return record


# ----------------------------------------------------------------------
# Space bound specs: measured bytes vs. the paper's bit envelopes.
# ----------------------------------------------------------------------


def _thm13_space_envelope(p: Mapping[str, float]) -> float:
    # The resident working set an oracle needs to answer Thm 1.3 queries:
    # the graph itself as a (both-directions) weighted edge list —
    # 2m edges at 2*ceil(log2 n) + 32 bits each (the same per-edge price
    # repro.sketch.serialization.edge_bits charges).
    n = max(2.0, p["n"])
    return 2.0 * p["m"] * (2.0 * max(1.0, math.ceil(math.log2(n))) + 32.0)


#: Measured-space specs, each reading a byte column that its tables
#: print only while a memory profiler runs.
SPACE_SPECS = (
    _bounds.SpaceBoundSpec(
        name="thm11.space_bytes",
        theorem="Thm 1.1",
        column="sketch_bytes",
        direction="lower",
        predicted=_bounds._thm11_envelope,
        formula="n*sqrt(beta)/eps",
        slack=8.0,
        # No exponent fit: python object overhead swamps the asymptotic
        # constant at simulation sizes (the thm57 precedent), so only
        # the per-row envelope check is meaningful for measured bytes.
        sweep=None,
        requires=("n", "beta", "eps"),
    ),
    _bounds.SpaceBoundSpec(
        name="thm12.space_bytes",
        theorem="Thm 1.2",
        column="sketch_bytes",
        direction="lower",
        predicted=_bounds._thm12_envelope,
        formula="n*beta/eps^2",
        slack=8.0,
        sweep=None,
        requires=("n", "beta", "eps"),
    ),
    _bounds.SpaceBoundSpec(
        name="thm13.space_bytes",
        theorem="Thm 1.3",
        column="oracle_bytes",
        direction="upper",
        predicted=_thm13_space_envelope,
        formula="2m*(2*ceil(log2 n)+32)",
        slack=128.0,
        sweep=None,
        requires=("n", "m"),
    ),
)


def register_space_bounds() -> None:
    """Register the measured-space specs (idempotent)."""
    for spec in SPACE_SPECS:
        _bounds.register(spec, replace=True)


def unregister_space_bounds() -> None:
    """Remove the space specs (absent is a no-op)."""
    for spec in SPACE_SPECS:
        _bounds.unregister(spec.name)


__all__ = [
    "DEFAULT_INTERVAL",
    "DEFAULT_TOP",
    "MODES",
    "MemoryProfiler",
    "SAMPLE",
    "SPACE_SPECS",
    "TRACE",
    "active",
    "deep_footprint",
    "deep_sizeof",
    "observe_footprint",
    "profiling",
    "read_rss",
    "register_space_bounds",
    "rss_bytes",
    "unregister_space_bounds",
]
