"""In-process live telemetry bus with sliding-window aggregation.

Everything built in PRs 2-4 and 7 is *post-hoc*: telemetry, bound
checks, and wire transcripts land in files that are inspected after the
run exits.  This module makes the same event flow observable **while
the process is running**:

* :class:`LiveBus` — a tiny synchronous pub/sub hub.  One module-level
  bus can be installed (:func:`install` / :func:`publishing`); while it
  is, :func:`repro.obs.sink.emit` tees every telemetry record it writes
  into the bus, :func:`repro.obs.capture.record` tees wire messages,
  and :mod:`repro.parallel` publishes worker ``heartbeat`` records and
  ``live.tick`` clock pulses.  With no bus installed the tee is one
  module-attribute load and an ``is None`` branch — the disabled path
  stays free.
* :class:`SlidingWindow` — a ring buffer of ``(ts, value)`` samples
  with time-based expiry, event rates, and nearest-rank quantiles that
  match :meth:`repro.obs.metrics.Histogram.quantile` exactly.
* :class:`LiveAggregator` — a bus subscriber that folds the event
  stream into per-span latency windows, per-bound slack-margin windows,
  per-worker liveness, counter rates (from registry snapshots taken on
  ``live.tick``), and event-kind counts.  Its :meth:`~LiveAggregator.
  snapshot` is what the exporters (:mod:`repro.obs.exporters`) and the
  SLO engine (:mod:`repro.obs.slo`) read.

Subscriber errors are contained: a callback that raises is recorded on
``bus.errors`` and the record keeps flowing — live observability must
never take the experiment down with it.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ObsError
from repro.obs.metrics import nearest_rank

#: A bus subscriber: receives each published record (a plain dict).
Subscriber = Callable[[Dict[str, Any]], None]

#: Default sliding-window horizon in seconds.
DEFAULT_WINDOW_S = 30.0

#: Default per-window sample capacity (oldest samples drop first).
DEFAULT_CAPACITY = 4096


class LiveBus:
    """A synchronous in-process pub/sub hub for telemetry records.

    Subscribers are called in subscription order, on the publishing
    thread, with the record dict itself (treat it as read-only).  A
    ``kinds`` filter restricts a subscriber to records whose ``event``
    field is in the given set.
    """

    def __init__(self) -> None:
        self._subscribers: List[Tuple[Subscriber, Optional[frozenset]]] = []
        #: ``(subscriber, exception)`` pairs from callbacks that raised.
        self.errors: List[Tuple[Subscriber, Exception]] = []
        #: Total records published through this bus.
        self.published = 0

    def subscribe(
        self,
        fn: Subscriber,
        kinds: Optional[Sequence[str]] = None,
    ) -> Subscriber:
        """Register ``fn``; returns it so it can be unsubscribed later."""
        # Equality, not identity: each ``instance.method`` access builds
        # a fresh bound-method object, and those compare equal.
        if any(existing == fn for existing, _ in self._subscribers):
            raise ObsError("subscriber is already registered")
        self._subscribers.append(
            (fn, frozenset(kinds) if kinds is not None else None)
        )
        return fn

    def unsubscribe(self, fn: Subscriber) -> None:
        """Remove ``fn`` (absent is a no-op, like monitor uninstall)."""
        self._subscribers = [
            entry for entry in self._subscribers if entry[0] != fn
        ]

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    def publish(self, record: Dict[str, Any]) -> None:
        """Fan one record out to every matching subscriber."""
        self.published += 1
        kind = record.get("event")
        for fn, kinds in self._subscribers:
            if kinds is not None and kind not in kinds:
                continue
            try:
                fn(record)
            except Exception as exc:  # a bad subscriber must not kill the run
                self.errors.append((fn, exc))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LiveBus(subscribers={len(self._subscribers)}, "
            f"published={self.published})"
        )


#: The installed bus, or None.  Checked by every tee site.
_BUS: Optional[LiveBus] = None


def install(bus: LiveBus) -> LiveBus:
    """Make ``bus`` the live bus; only one can be installed at a time."""
    global _BUS
    if _BUS is not None:
        raise ObsError("a live bus is already installed")
    _BUS = bus
    return bus


def uninstall(bus: Optional[LiveBus] = None) -> None:
    """Remove the installed bus (absent or mismatched is a no-op)."""
    global _BUS
    if bus is None or _BUS is bus:
        _BUS = None


def active() -> Optional[LiveBus]:
    """The installed bus, or ``None``."""
    return _BUS


def clear_for_worker() -> None:
    """Drop the inherited bus inside a forked pool worker.

    A worker's copy of the bus carries the parent's subscribers (SLO
    engines, exporters); letting them run in the child would evaluate
    rules against partial state and, worse, emit ``slo.violation``
    events into the worker's telemetry delta — breaking the
    serial == parallel telemetry-equality invariant.  Workers talk to
    the parent through the heartbeat queue instead.
    """
    global _BUS
    _BUS = None


def publish(record: Dict[str, Any]) -> None:
    """Publish to the installed bus; a cheap no-op when none is."""
    if _BUS is not None:
        _BUS.publish(record)


def tick(ts: Optional[float] = None) -> None:
    """Publish a ``live.tick`` clock pulse (drives windowed evaluation)."""
    if _BUS is not None:
        _BUS.publish({"event": "live.tick", "ts": time.time() if ts is None else ts})


@contextmanager
def publishing(bus: Optional[LiveBus] = None) -> Iterator[LiveBus]:
    """Scoped :func:`install`; yields the bus, uninstalls on exit."""
    bus = bus or LiveBus()
    install(bus)
    try:
        yield bus
    finally:
        uninstall(bus)


# ----------------------------------------------------------------------
# Sliding windows.
# ----------------------------------------------------------------------


class SlidingWindow:
    """Time-bounded ring buffer of ``(ts, value)`` samples.

    ``window_s`` bounds the age of retained samples; ``capacity`` bounds
    their count (oldest evicted first).  Quantiles are nearest-rank over
    the samples still inside the window, by
    :func:`repro.obs.metrics.nearest_rank` like
    :meth:`repro.obs.metrics.Histogram.quantile`, so a window covering a
    whole run and the run's histogram agree exactly.
    """

    __slots__ = ("window_s", "capacity", "_ts", "_values", "_head", "_size")

    def __init__(
        self,
        window_s: float = DEFAULT_WINDOW_S,
        capacity: int = DEFAULT_CAPACITY,
    ):
        if window_s <= 0:
            raise ObsError(f"window_s must be positive, got {window_s!r}")
        if capacity <= 0:
            raise ObsError(f"capacity must be positive, got {capacity!r}")
        self.window_s = float(window_s)
        self.capacity = int(capacity)
        self._ts: List[float] = [0.0] * self.capacity
        self._values: List[float] = [0.0] * self.capacity
        self._head = 0  # next write position
        self._size = 0

    def add(self, value: float, ts: Optional[float] = None) -> None:
        """Record one sample at ``ts`` (defaults to now)."""
        self._ts[self._head] = time.time() if ts is None else float(ts)
        self._values[self._head] = float(value)
        self._head = (self._head + 1) % self.capacity
        if self._size < self.capacity:
            self._size += 1

    def _live_items(self, now: Optional[float]) -> List[Tuple[float, float]]:
        """Chronological ``(ts, value)`` pairs still inside the window."""
        if now is None:
            now = time.time()
        cutoff = now - self.window_s
        start = (self._head - self._size) % self.capacity
        items = []
        for offset in range(self._size):
            index = (start + offset) % self.capacity
            if self._ts[index] >= cutoff:
                items.append((self._ts[index], self._values[index]))
        return items

    def values(self, now: Optional[float] = None) -> List[float]:
        """Samples inside the window, in arrival order."""
        return [value for _, value in self._live_items(now)]

    def count(self, now: Optional[float] = None) -> int:
        return len(self._live_items(now))

    def total(self, now: Optional[float] = None) -> float:
        return math.fsum(self.values(now))

    def rate(self, now: Optional[float] = None) -> float:
        """Samples per second over the window horizon."""
        return self.count(now) / self.window_s

    def quantile(self, q: float, now: Optional[float] = None) -> float:
        """Nearest-rank quantile of the live samples (empty raises)."""
        live = sorted(self.values(now))
        if not live:
            raise ObsError("sliding window has no live samples")
        return nearest_rank(live, q)

    def summary(self, now: Optional[float] = None) -> Dict[str, float]:
        """count/rate/min/p50/p95/p99/max over the live samples."""
        live = sorted(self.values(now))
        if not live:
            return {"count": 0, "empty": True}
        return {
            "count": len(live),
            "rate": len(live) / self.window_s,
            "sum": math.fsum(live),
            "min": live[0],
            "p50": nearest_rank(live, 0.5),
            "p95": nearest_rank(live, 0.95),
            "p99": nearest_rank(live, 0.99),
            "max": live[-1],
        }

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SlidingWindow(window_s={self.window_s}, size={self._size})"
        )


# ----------------------------------------------------------------------
# The aggregator.
# ----------------------------------------------------------------------


def bound_margin(record: Dict[str, Any]) -> Optional[float]:
    """Distance of one row-level ``bound_check`` from violating.

    Normalised so ``margin >= 1`` means the check passed and shrinking
    toward 1 means the declared slack is being eaten: for a lower bound
    ``measured * slack / predicted``, for an upper bound
    ``predicted * slack / measured``, for a band the min of both.
    Returns ``None`` for fit-level or skipped checks.
    """
    if record.get("kind") != "row":
        return None
    measured = record.get("measured")
    predicted = record.get("predicted")
    slack = record.get("slack")
    direction = record.get("direction")
    if measured is None or predicted is None or slack is None:
        return None
    if not measured or not predicted:
        return None
    lower = measured * slack / predicted
    upper = predicted * slack / measured
    if direction == "lower":
        return lower
    if direction == "upper":
        return upper
    if direction == "band":
        return min(lower, upper)
    return None


class LiveAggregator:
    """Folds the live event stream into windowed, queryable state.

    Attach with :meth:`attach` (subscribes to a bus) or feed records
    directly through :meth:`on_record`.  State:

    * ``spans[path]`` — :class:`SlidingWindow` of span wall seconds;
    * ``bounds[spec]`` — window of slack margins (:func:`bound_margin`);
    * ``workers[pid]`` — last heartbeat payload per live worker pid
      (removed again when the worker's ``phase="end"`` beat arrives);
    * ``rates`` — counter movement per second between the last two
      ``live.tick`` registry snapshots;
    * ``events`` — cumulative record count per event kind;
    * ``memory_rss`` / ``memory_spans`` / ``memory_footprints`` — the
      measured-space state folded from ``memory`` events and heartbeat
      ``rss`` fields (see :mod:`repro.obs.memory`), read by the
      ``mem:`` / ``rss:`` SLO rules and the ``repro_memory_*`` gauges.
    """

    def __init__(self, window_s: float = DEFAULT_WINDOW_S):
        self.window_s = float(window_s)
        self.spans: Dict[str, SlidingWindow] = {}
        self.bounds: Dict[str, SlidingWindow] = {}
        self.workers: Dict[int, Dict[str, Any]] = {}
        self.rates: Dict[str, float] = {}
        self.events: Dict[str, int] = {}
        self.violations: List[Dict[str, Any]] = []
        #: Main-process RSS samples (``memory``/``kind=rss`` events).
        self.memory_rss = SlidingWindow(self.window_s)
        #: Peak RSS over every source seen: rss events and worker beats.
        self.memory_rss_peak: Optional[float] = None
        #: Per-span allocation aggregates (``memory``/``kind=span``;
        #: cumulative over the run, so last write wins).
        self.memory_spans: Dict[str, Dict[str, Any]] = {}
        #: Per-structure footprint aggregates (``memory``/``kind=footprint``).
        self.memory_footprints: Dict[str, Dict[str, Any]] = {}
        self.last_ts: Optional[float] = None
        self._last_snapshot: Optional[Dict[str, float]] = None
        self._last_snapshot_ts: Optional[float] = None

    # -- wiring ---------------------------------------------------------

    def attach(self, bus: LiveBus) -> "LiveAggregator":
        bus.subscribe(self.on_record)
        return self

    def detach(self, bus: LiveBus) -> None:
        bus.unsubscribe(self.on_record)

    # -- record handling ------------------------------------------------

    def on_record(self, record: Dict[str, Any]) -> None:
        kind = record.get("event")
        if not isinstance(kind, str):
            return
        ts = record.get("ts")
        ts = float(ts) if isinstance(ts, (int, float)) else time.time()
        self.last_ts = ts
        self.events[kind] = self.events.get(kind, 0) + 1
        if kind == "span":
            self._on_span(record, ts)
        elif kind == "bound_check":
            self._on_bound_check(record, ts)
        elif kind == "heartbeat":
            self._on_heartbeat(record, ts)
        elif kind == "memory":
            self._on_memory(record, ts)
        elif kind == "live.tick":
            self._on_tick(ts)
        elif kind == "slo.violation":
            self.violations.append(dict(record))

    def _window(
        self, table: Dict[str, SlidingWindow], key: str
    ) -> SlidingWindow:
        window = table.get(key)
        if window is None:
            window = table[key] = SlidingWindow(self.window_s)
        return window

    def _on_span(self, record: Dict[str, Any], ts: float) -> None:
        path = record.get("path") or record.get("name")
        wall = record.get("wall_s")
        if not isinstance(path, str) or not isinstance(wall, (int, float)):
            return
        self._window(self.spans, path).add(float(wall), ts)

    def _on_bound_check(self, record: Dict[str, Any], ts: float) -> None:
        margin = bound_margin(record)
        spec = record.get("spec")
        if margin is None or not isinstance(spec, str):
            return
        self._window(self.bounds, spec).add(margin, ts)

    def _on_heartbeat(self, record: Dict[str, Any], ts: float) -> None:
        worker = record.get("worker")
        if not isinstance(worker, int):
            return
        rss = record.get("rss")
        if isinstance(rss, (int, float)) and (
            self.memory_rss_peak is None or rss > self.memory_rss_peak
        ):
            self.memory_rss_peak = float(rss)
        if record.get("phase") == "end":
            self.workers.pop(worker, None)
            return
        entry = dict(record)
        entry["ts"] = ts
        self.workers[worker] = entry

    def _on_memory(self, record: Dict[str, Any], ts: float) -> None:
        mkind = record.get("kind")
        if mkind == "rss":
            rss = record.get("rss_bytes")
            if isinstance(rss, (int, float)):
                self.memory_rss.add(float(rss), ts)
            peak = record.get("rss_peak_bytes", rss)
            if isinstance(peak, (int, float)) and (
                self.memory_rss_peak is None or peak > self.memory_rss_peak
            ):
                self.memory_rss_peak = float(peak)
        elif mkind == "span":
            path = record.get("span")
            if isinstance(path, str):
                self.memory_spans[path] = {
                    "boundaries": record.get("boundaries"),
                    "net_bytes": record.get("net_bytes"),
                    "peak_bytes": record.get("peak_bytes"),
                }
        elif mkind == "footprint":
            structure = record.get("structure")
            if not isinstance(structure, str):
                return
            key = f"{structure}:{record.get('type')}"
            entry = self.memory_footprints.get(key)
            if entry is None:
                entry = self.memory_footprints[key] = {
                    "structure": structure,
                    "type": record.get("type"),
                    "count": 0,
                    "total_bytes": 0,
                    "last_bytes": 0,
                }
            measured = record.get("measured_bytes")
            entry["count"] += 1
            if isinstance(measured, (int, float)):
                entry["total_bytes"] += measured
                entry["last_bytes"] = measured
            ratio = record.get("bytes_per_bit")
            if ratio is not None:
                entry["bytes_per_bit"] = ratio

    def _on_tick(self, ts: float) -> None:
        # Counter rates come from whole-registry snapshots, not from
        # summing span deltas (nested spans would double count).
        from repro.obs.metrics import REGISTRY

        snap = REGISTRY.snapshot()
        if (
            self._last_snapshot is not None
            and self._last_snapshot_ts is not None
            and ts > self._last_snapshot_ts
        ):
            dt = ts - self._last_snapshot_ts
            self.rates = {
                name: (value - self._last_snapshot.get(name, 0)) / dt
                for name, value in snap.items()
                if value != self._last_snapshot.get(name, 0)
            }
        self._last_snapshot = snap
        self._last_snapshot_ts = ts

    # -- queries --------------------------------------------------------

    def span_quantile(
        self, path: str, q: float, now: Optional[float] = None
    ) -> Optional[float]:
        """Windowed latency quantile for span ``path`` (prefix match).

        ``path`` matches a span window if it equals the recorded path,
        equals its leaf name, or is a ``/``-prefix of the path.  With
        several matching windows the quantile is taken over the union
        of their live samples.  Returns ``None`` with no live samples.
        """
        pooled: List[float] = []
        for recorded, window in self.spans.items():
            if (
                recorded == path
                or recorded.rsplit("/", 1)[-1] == path
                or recorded.startswith(path + "/")
            ):
                pooled.extend(window.values(now))
        if not pooled:
            return None
        pooled.sort()
        return nearest_rank(pooled, q)

    def bound_min_margin(
        self, spec: str, now: Optional[float] = None
    ) -> Optional[float]:
        """Smallest live slack margin for ``spec`` (None if unobserved)."""
        window = self.bounds.get(spec)
        if window is None:
            return None
        live = window.values(now)
        return min(live) if live else None

    def max_rss(self, now: Optional[float] = None) -> Optional[float]:
        """Peak RSS in bytes over every source seen so far.

        Folds the main process (``memory``/``kind=rss`` events, which
        carry the sampler thread's high-water mark) and every worker
        heartbeat's ``rss`` field.  The ``rss:`` SLO rules read this —
        ``None`` (nothing observed) never breaches.
        """
        peak = self.memory_rss_peak
        live = self.memory_rss.values(now)
        if live:
            high = max(live)
            if peak is None or high > peak:
                peak = high
        return peak

    def span_alloc_peaks(
        self, target: str
    ) -> List[Tuple[str, float]]:
        """``(span path, peak allocation bytes)`` for spans matching ``target``.

        Matching follows :meth:`span_quantile`: exact path, leaf name,
        ``/``-prefix — or ``*`` for every recorded span.  The ``mem:``
        SLO rules read this (data exists only under trace-mode memory
        profiling).
        """
        out: List[Tuple[str, float]] = []
        for path, entry in sorted(self.memory_spans.items()):
            if target != "*" and not (
                path == target
                or path.rsplit("/", 1)[-1] == target
                or path.startswith(target + "/")
            ):
                continue
            peak = entry.get("peak_bytes")
            if isinstance(peak, (int, float)):
                out.append((path, float(peak)))
        return out

    def stalled_workers(
        self, threshold_s: float, now: Optional[float] = None
    ) -> List[Dict[str, Any]]:
        """Live workers whose last heartbeat is older than ``threshold_s``."""
        if now is None:
            now = time.time()
        return [
            entry
            for entry in self.workers.values()
            if now - entry.get("ts", now) > threshold_s
        ]

    def snapshot(self, now: Optional[float] = None) -> Dict[str, Any]:
        """One JSON-friendly frame of the whole live state."""
        if now is None:
            now = time.time()
        return {
            "ts": now,
            "window_s": self.window_s,
            "events": dict(self.events),
            "rates": dict(self.rates),
            "spans": {
                path: window.summary(now)
                for path, window in sorted(self.spans.items())
            },
            "bounds": {
                spec: {
                    "min_margin": self.bound_min_margin(spec, now),
                    **window.summary(now),
                }
                for spec, window in sorted(self.bounds.items())
            },
            "workers": {
                str(pid): {
                    "age_s": now - entry.get("ts", now),
                    "chunk": entry.get("chunk"),
                    "trial": entry.get("trial"),
                    "done": entry.get("done"),
                    "rss": entry.get("rss"),
                }
                for pid, entry in sorted(self.workers.items())
            },
            "memory": {
                "rss": self.memory_rss.summary(now),
                "rss_peak_bytes": self.max_rss(now),
                "spans": {
                    path: dict(entry)
                    for path, entry in sorted(self.memory_spans.items())
                },
                "footprints": {
                    key: dict(entry)
                    for key, entry in sorted(self.memory_footprints.items())
                },
            },
            "violations": len(self.violations),
        }


__all__ = [
    "DEFAULT_WINDOW_S",
    "LiveAggregator",
    "LiveBus",
    "SlidingWindow",
    "active",
    "bound_margin",
    "clear_for_worker",
    "install",
    "publish",
    "publishing",
    "tick",
    "uninstall",
]
