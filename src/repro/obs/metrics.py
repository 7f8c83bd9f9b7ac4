"""Counters, gauges, and histograms with a namespaced registry.

Two usage modes share the same classes:

* **Local registries** — always-on resource accounting.  The local-query
  :class:`~repro.localquery.oracle.QueryCounter` and the comm layer's
  :class:`~repro.comm.protocol.BitLedger` own private
  :class:`MetricsRegistry` instances because their tallies *are* the
  measured quantities of Theorems 1.1–1.3; they count whether or not
  telemetry is enabled.
* **The global registry** — :data:`REGISTRY`, fed by the module-level
  helpers (:func:`count`, :func:`observe`, :func:`set_gauge`), which are
  no-ops while the global switch is off.  Spans snapshot this registry
  to attribute metric deltas to the code region that produced them.

Metric names are dotted namespaces (``oracle.query.degree``,
``comm.wire_bits``, ``csr.cut_weights.rows``) so one JSONL record can
carry the whole story of a run.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import ObsError
from repro.obs.core import STATE


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of non-empty ascending ``ordered``.

    The one rule :class:`Histogram` and the live windows share, so a
    window covering a whole run and the run's histogram agree exactly.
    """
    if not 0.0 <= q <= 1.0:
        raise ObsError(f"quantile must be in [0, 1], got {q!r}")
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


class Counter:
    """A monotonically increasing integer/float tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the tally."""
        if amount < 0:
            raise ObsError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def reset(self) -> None:
        """Zero the tally."""
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A last-value-wins instantaneous measurement."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value

    def reset(self) -> None:
        """Forget the recorded level."""
        self.value = None

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """A sample distribution with nearest-rank quantiles.

    Samples are kept verbatim (runs at this scale observe thousands of
    values, not billions); the sorted order is cached and invalidated on
    the next :meth:`observe`.
    """

    __slots__ = ("name", "_samples", "_sorted")

    def __init__(self, name: str):
        self.name = name
        self._samples: List[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        """Record one sample."""
        self._samples.append(float(value))
        self._sorted = False

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self._samples)

    @property
    def sum(self) -> float:
        """Sum of recorded samples."""
        return math.fsum(self._samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean; raises :class:`ObsError` when empty."""
        if not self._samples:
            raise ObsError(f"histogram {self.name!r} has no samples")
        return self.sum / len(self._samples)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile: ``q=0`` is the min, ``q=1`` the max.

        Duplicate samples are handled naturally (the rank lands on one of
        them); an empty histogram raises :class:`ObsError` rather than
        inventing a value.
        """
        if not self._samples:
            raise ObsError(f"histogram {self.name!r} has no samples")
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return nearest_rank(self._samples, q)

    def summary(self) -> Dict[str, float]:
        """count/sum/mean/min/p50/p90/max in one JSON-friendly dict.

        A registered-but-never-observed histogram summarises to a marked
        empty record instead of raising — end-of-run reporting must not
        crash on an instrument that never fired.
        """
        if not self._samples:
            return {"count": 0, "sum": 0.0, "empty": True}
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.quantile(0.0),
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "max": self.quantile(1.0),
        }

    def samples(self) -> List[float]:
        """A copy of the recorded samples.

        In insertion order unless a quantile has been taken since the
        last :meth:`observe` (quantiles sort the backing list in
        place); the *multiset* of samples — what every quantile and sum
        is computed from — is always exact.  This is the shipping
        format of the parallel telemetry merge.
        """
        return list(self._samples)

    def reset(self) -> None:
        """Drop all samples."""
        self._samples.clear()
        self._sorted = True

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


class MetricsRegistry:
    """A namespace of metrics, created on first use.

    A name is bound to one metric kind for the registry's lifetime;
    asking for the same name as a different kind raises
    :class:`ObsError` (it would silently split the tally otherwise).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_free(self, name: str, want: str) -> None:
        for kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if kind != want and name in table:
                raise ObsError(
                    f"metric {name!r} already registered as a {kind}"
                )

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created if needed."""
        metric = self._counters.get(name)
        if metric is None:
            self._check_free(name, "counter")
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created if needed."""
        metric = self._gauges.get(name)
        if metric is None:
            self._check_free(name, "gauge")
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created if needed."""
        metric = self._histograms.get(name)
        if metric is None:
            self._check_free(name, "histogram")
            metric = self._histograms[name] = Histogram(name)
        return metric

    def counters(self) -> Dict[str, Counter]:
        """Name-sorted read-only view of the registered counters."""
        return dict(sorted(self._counters.items()))

    def gauges(self) -> Dict[str, Gauge]:
        """Name-sorted read-only view of the registered gauges."""
        return dict(sorted(self._gauges.items()))

    def histograms(self) -> Dict[str, Histogram]:
        """Name-sorted read-only view of the registered histograms."""
        return dict(sorted(self._histograms.items()))

    def snapshot(self) -> Dict[str, float]:
        """Flat cumulative view: counters plus histogram count/sum.

        Gauges are instantaneous, so they are excluded — a delta of two
        snapshots would be meaningless for them.
        """
        snap: Dict[str, float] = {
            name: metric.value for name, metric in self._counters.items()
        }
        for name, hist in self._histograms.items():
            snap[f"{name}.count"] = hist.count
            snap[f"{name}.sum"] = hist.sum
        return snap

    def delta_since(self, snapshot: Dict[str, float]) -> Dict[str, float]:
        """Changed entries of :meth:`snapshot` relative to an older one."""
        now = self.snapshot()
        return {
            name: value - snapshot.get(name, 0)
            for name, value in now.items()
            if value != snapshot.get(name, 0)
        }

    def as_dict(self) -> Dict[str, Dict]:
        """Full structured dump, the payload of ``summary`` events."""
        return {
            "counters": {
                name: metric.value
                for name, metric in sorted(self._counters.items())
            },
            "gauges": {
                name: metric.value
                for name, metric in sorted(self._gauges.items())
                if metric.value is not None
            },
            "histograms": {
                name: hist.summary()
                for name, hist in sorted(self._histograms.items())
            },
        }

    def dump_state(self) -> Dict[str, Dict]:
        """A picklable snapshot of every metric's full state.

        Unlike :meth:`snapshot` (flat cumulative counters), this keeps
        histogram *samples* verbatim and includes gauges, so a worker
        process can ship its registry across a process boundary and the
        parent can fold it in with :meth:`merge_state` without losing
        quantile inputs.  Only non-empty metrics are included.
        """
        return {
            "counters": {
                name: metric.value
                for name, metric in self._counters.items()
                if metric.value
            },
            "gauges": {
                name: metric.value
                for name, metric in self._gauges.items()
                if metric.value is not None
            },
            "histograms": {
                name: hist.samples()
                for name, hist in self._histograms.items()
                if hist.count
            },
        }

    def merge_state(self, state: Dict[str, Dict]) -> None:
        """Fold a :meth:`dump_state` snapshot into this registry.

        Counters add (commutative: merging worker snapshots in any
        order yields the same totals), histogram samples extend in the
        shipped order (so the merged quantile inputs are the exact
        union of the parts; callers wanting a deterministic sample
        *order* must merge snapshots in a deterministic order, as the
        parallel engine does — sorted by chunk start index), and
        gauges are last-write-wins in merge order.
        """
        for name, value in state.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in state.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, samples in state.get("histograms", {}).items():
            hist = self.histogram(name)
            for sample in samples:
                hist.observe(sample)

    def reset(self) -> None:
        """Zero every metric (the objects stay registered)."""
        for table in (self._counters, self._gauges, self._histograms):
            for metric in table.values():
                metric.reset()

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, "
            f"histograms={len(self._histograms)})"
        )


#: The global registry behind the gated helpers below.
REGISTRY = MetricsRegistry()


def count(name: str, amount: int = 1) -> None:
    """Increment a global counter — no-op while telemetry is disabled."""
    if STATE.enabled:
        REGISTRY.counter(name).inc(amount)


def observe(name: str, value: float) -> None:
    """Record a global histogram sample — no-op while disabled."""
    if STATE.enabled:
        REGISTRY.histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    """Set a global gauge — no-op while disabled."""
    if STATE.enabled:
        REGISTRY.gauge(name).set(value)


def snapshot() -> Dict[str, float]:
    """Cumulative snapshot of the global registry (works even disabled)."""
    return REGISTRY.snapshot()


def delta_since(snap: Dict[str, float]) -> Dict[str, float]:
    """Global-registry metric movement since ``snap``."""
    return REGISTRY.delta_since(snap)


def reset_metrics() -> None:
    """Zero the global registry (tests and fresh runs)."""
    REGISTRY.reset()


@contextmanager
def fresh_registry() -> Iterator[MetricsRegistry]:
    """Zero the global registry for a block; its values come back after."""
    saved = REGISTRY.dump_state()
    REGISTRY.reset()
    try:
        yield REGISTRY
    finally:
        REGISTRY.reset()
        REGISTRY.merge_state(saved)
