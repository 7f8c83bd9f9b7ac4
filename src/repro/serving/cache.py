"""Content-addressed snapshot + sketch cache for the serving daemon.

Registered graphs are keyed by their graph oid
(:func:`repro.serving.protocol.graph_oid`, a content address of the
payload), so re-registering an identical graph, from any client, lands
on the same entry.  Each
:class:`SnapshotEntry` holds the mutable graph (for exact min-cut
queries), its frozen :class:`~repro.graphs.csr.CSRGraph` snapshot
(what the batched cut kernels run on), and lazily built
:class:`~repro.sketch.sparsifier.SparsifierSketch` instances keyed by
their full parameterisation.

The cache is LRU-bounded by *measured bytes*: every entry (and every
sketch added to one) is priced with PR 9's
:func:`repro.obs.memory.deep_sizeof`, and inserts evict
least-recently-used entries until the measured total fits
``max_bytes``.  Hit/miss/eviction counters and bytes/entry gauges feed
the ``repro_serving_*`` Prometheus series.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.graphs.csr import CSRGraph
from repro.graphs.ugraph import UGraph
from repro.obs import count as _obs_count
from repro.obs import set_gauge as _obs_gauge
from repro.obs.core import STATE as _OBS
from repro.obs.memory import deep_sizeof
from repro.serving.protocol import ServingError

#: Default cache budget: enough for the bench's handful of graphs while
#: still exercising eviction in tests.
DEFAULT_CACHE_BYTES = 256 << 20


class SnapshotEntry:
    """One registered graph: frozen snapshot plus derived state."""

    __slots__ = ("oid", "graph", "csr", "index", "sketches", "nbytes", "hits")

    def __init__(self, oid: str, graph, csr: CSRGraph):
        self.oid = oid
        self.graph = graph
        self.csr = csr
        #: label -> interned index, shared with clients via node order.
        self.index: Dict[Any, int] = {
            label: i for i, label in enumerate(csr.labels)
        }
        #: (epsilon, constant, connectivity, seed/state digest) -> sketch.
        self.sketches: Dict[Tuple, Any] = {}
        self.nbytes = 0
        self.hits = 0

    @property
    def undirected(self) -> bool:
        return isinstance(self.graph, UGraph)


class SnapshotCache:
    """Bytes-bounded LRU over :class:`SnapshotEntry` objects."""

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES):
        if max_bytes <= 0:
            raise ServingError(f"max_bytes must be positive, got {max_bytes!r}")
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[str, SnapshotEntry]" = OrderedDict()
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- core operations ------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, oid: str) -> bool:
        return oid in self._entries

    def oids(self) -> List[str]:
        """Cached oids, least recently used first."""
        return list(self._entries)

    def get(self, oid: str) -> SnapshotEntry:
        """The entry for ``oid`` (refreshing recency), or raise."""
        entry = self._entries.get(oid)
        if entry is None:
            self.misses += 1
            if _OBS.enabled:
                _obs_count("serving.cache.misses")
            raise ServingError(
                f"graph {oid[:12]}... is not registered (or was evicted); "
                "re-register it"
            )
        self._entries.move_to_end(oid)
        entry.hits += 1
        self.hits += 1
        if _OBS.enabled:
            _obs_count("serving.cache.hits")
            self._export_gauges()
        return entry

    def put(self, oid: str, graph, csr: Optional[CSRGraph] = None) -> SnapshotEntry:
        """Insert (or refresh) a registered graph; returns its entry.

        Registering an oid that is already cached is a hit — the graph
        bytes are dropped and the existing entry (with its sketches)
        survives.
        """
        existing = self._entries.get(oid)
        if existing is not None:
            self._entries.move_to_end(oid)
            self.hits += 1
            if _OBS.enabled:
                _obs_count("serving.cache.hits")
            return existing
        if csr is None:
            csr = graph.freeze()
        entry = SnapshotEntry(oid, graph, csr)
        entry.nbytes = deep_sizeof(entry.graph) + deep_sizeof(entry.csr)
        self._entries[oid] = entry
        self.total_bytes += entry.nbytes
        self.misses += 1
        if _OBS.enabled:
            _obs_count("serving.cache.misses")
        self._evict(keep=oid)
        if _OBS.enabled:
            self._export_gauges()
        return entry

    def add_sketch_bytes(self, entry: SnapshotEntry, obj: Any) -> None:
        """Charge a derived object (a sketch) to its entry."""
        grew = deep_sizeof(obj)
        entry.nbytes += grew
        self.total_bytes += grew
        self._evict(keep=entry.oid)
        if _OBS.enabled:
            self._export_gauges()

    # -- internals ------------------------------------------------------

    def _evict(self, keep: str) -> None:
        """Drop LRU entries until the budget fits (never ``keep``)."""
        while self.total_bytes > self.max_bytes and len(self._entries) > 1:
            oid = next(iter(self._entries))
            if oid == keep:
                # keep is LRU-first only when it is the sole other entry;
                # refresh it and retry with the true LRU.
                self._entries.move_to_end(oid)
                continue
            victim = self._entries.pop(oid)
            self.total_bytes -= victim.nbytes
            self.evictions += 1
            if _OBS.enabled:
                _obs_count("serving.cache.evictions")

    def _export_gauges(self) -> None:
        _obs_gauge("serving.cache.bytes", float(self.total_bytes))
        _obs_gauge("serving.cache.entries", float(len(self._entries)))

    def stats(self) -> Dict[str, Any]:
        """A JSON-able snapshot of cache health (the ``stats`` op)."""
        total = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "bytes": self.total_bytes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": (self.hits / total) if total else None,
        }


__all__ = ["DEFAULT_CACHE_BYTES", "SnapshotCache", "SnapshotEntry"]
