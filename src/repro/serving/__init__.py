"""The cut-query serving tier: sketches as a long-lived network service.

The paper's product is not the graph — it is the *sketch*: a compact
object that answers cut queries without the edges that built it, and
(Theorem 5.7) a k-server protocol that answers global min-cut with
little communication.  Everything before this package exercised those
objects inside one process; :mod:`repro.serving` puts them behind a
socket:

* :mod:`repro.serving.protocol` — length-prefixed frames with
  canonical-JSON payloads and SHA-256 digests, mapping 1:1 onto the
  :class:`repro.obs.capture.WireMessage` fields so served traffic
  lands in the same transcripts as every other wire byte;
* :mod:`repro.serving.cache` — content-addressed (graph-oid) snapshot
  cache, LRU-bounded by measured bytes, holding frozen
  :class:`~repro.graphs.csr.CSRGraph` snapshots plus per-graph
  sketches;
* :mod:`repro.serving.batcher` — the performance core: an adaptive
  micro-batching scheduler that coalesces concurrent in-flight cut
  queries against one snapshot into single vectorized
  :meth:`~repro.graphs.csr.CSRGraph.cut_weights_stable` calls with
  per-request fan-back;
* :mod:`repro.serving.server` — the asyncio daemon
  (``python -m repro.serving.server``) wired through the obs
  live/SLO/Prometheus stack;
* :mod:`repro.serving.client` — sync and async clients sharing the
  codec.
"""

from repro.serving.batcher import MicroBatcher
from repro.serving.cache import SnapshotCache, SnapshotEntry
from repro.serving.client import AsyncServingClient, ServingClient
from repro.serving.protocol import (
    Envelope,
    ServingError,
    graph_from_payload,
    graph_oid,
    graph_payload,
    side_mask,
)
from repro.serving.server import SketchServer

__all__ = [
    "AsyncServingClient",
    "Envelope",
    "MicroBatcher",
    "ServingClient",
    "ServingError",
    "SketchServer",
    "SnapshotCache",
    "SnapshotEntry",
    "graph_from_payload",
    "graph_oid",
    "graph_payload",
    "side_mask",
]
