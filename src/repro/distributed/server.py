"""Servers holding edge shards of a distributed graph (Section 1).

The paper's motivating application: a graph's edges are spread across
servers, and a coordinator wants a ``(1 + eps)``-approximate global min
cut with little communication.  Each :class:`Server` owns an edge
subset and can

* ship a for-all cut sketch of its shard (a real sparsifier, whose size
  in bits is the dominant communication term), and
* answer per-cut value queries, *quantized* to a requested relative
  precision — our stand-in for the for-each sketch queries of
  [ACK+16]'s scheme (see DESIGN.md: the interactive phase preserves the
  qualitative separation — refinement queries avoid paying the for-all
  ``1/eps^2`` in shipped bits).

**The ServerLike surface.**  The coordinator
(:func:`repro.distributed.coordinator.distributed_min_cut`) is
duck-typed over its servers; any object exposing

* ``name`` — a string identity used in wire-capture sender fields,
* ``forall_sketch(epsilon, rng=None, connectivity=..., sampling_constant=...)``
  returning a :class:`ShardSketch` (``epsilon`` float + ``sparse``
  graph; ``size_bits()`` prices the shipped message), and
* ``cut_value_response(side, relative_precision)`` returning
  ``(quantized_value, bits_charged)``

participates in the protocol unchanged.  :class:`Server` is the
in-process implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, List, Optional, Sequence, Tuple

from repro.errors import ParameterError
from repro.graphs.digraph import DiGraph
from repro.graphs.ugraph import Node, UGraph
from repro.obs import STATE as _OBS
from repro.obs import capture as _capture
from repro.obs import count as _obs_count
from repro.sketch.serialization import graph_size_bits
from repro.sketch.sparsifier import SparsifierSketch
from repro.utils.rng import RngLike, ensure_rng


def quantize_relative(value: float, relative_precision: float) -> Tuple[float, int]:
    """Round ``value`` to ``1 +- relative_precision`` and price it in bits.

    Encoding model: a shared exponent plus a mantissa of
    ``ceil(log2(1/precision))`` bits — the standard fixed-relative-error
    float.  Returns ``(quantized_value, bits_charged)``.
    """
    if not 0.0 < relative_precision < 1.0:
        raise ParameterError("relative_precision must be in (0, 1)")
    mantissa_bits = max(1, math.ceil(math.log2(1.0 / relative_precision)))
    exponent_bits = 11
    if value <= 0:
        return 0.0, mantissa_bits + exponent_bits
    exponent = math.floor(math.log2(value))
    scale = 2.0 ** (exponent - mantissa_bits)
    quantized = round(value / scale) * scale
    return quantized, mantissa_bits + exponent_bits


class Server:
    """One shard holder."""

    def __init__(self, name: str, shard: UGraph):
        self.name = name
        self._shard = shard.copy()

    @property
    def shard(self) -> UGraph:
        """The local edge set (a copy)."""
        return self._shard.copy()

    @property
    def num_edges(self) -> int:
        """Edges held locally."""
        return self._shard.num_edges

    def forall_sketch(
        self,
        epsilon: float,
        rng: RngLike = None,
        connectivity: str = "mincut",
        sampling_constant: Optional[float] = None,
    ) -> "ShardSketch":
        """A for-all sketch (sparsifier) of the local shard.

        Edge-partitioned shards are usually disconnected, so each
        connected component is sparsified independently (importance
        sampling needs positive connectivity inside the component);
        components with a single edge or vertex are kept verbatim.
        """
        gen = ensure_rng(rng)
        sparse = DiGraph(nodes=self._shard.nodes())
        for component in self._shard.connected_components():
            piece = self._shard.subgraph(component)
            if piece.num_edges == 0:
                continue
            if piece.num_nodes < 3 or piece.num_edges < 3:
                for u, v, w in piece.edges():
                    sparse.add_edge(u, v, w)
                    sparse.add_edge(v, u, w)
                continue
            kwargs = {}
            if sampling_constant is not None:
                kwargs["constant"] = sampling_constant
            component_sketch = SparsifierSketch.from_undirected(
                piece, epsilon=epsilon, rng=gen, connectivity=connectivity, **kwargs
            )
            for u, v, w in component_sketch.sparse_graph.edges():
                sparse.add_edge(u, v, w)
        return ShardSketch(epsilon=epsilon, sparse=sparse)

    def cut_value_response(
        self, side: AbstractSet[Node], relative_precision: float
    ) -> Tuple[float, int]:
        """Answer a coordinator cut query with quantized precision.

        Returns the quantized local cut value and the bits charged for
        the response.  Nodes outside the shard are ignored (a shard may
        not touch every vertex).
        """
        known = set(self._shard.nodes())
        local_side = set(side) & known
        if not local_side or local_side == known:
            response = 0.0, quantize_relative(0.0, relative_precision)[1]
        else:
            value = self._shard.cut_weight(local_side)
            response = quantize_relative(value, relative_precision)
        if _OBS.enabled:
            # One coordinator<->server round trip, priced in bits.  The
            # downstream query is free in the [ACK+16] accounting (the
            # candidate cut is broadcast); only the response is charged.
            _obs_count("distributed.round_trips")
            _obs_count("distributed.response_bits", response[1])
            _capture.record(
                "coordinator", self.name, "distributed.query", 0,
                payload=(
                    sorted(repr(v) for v in local_side),
                    float(relative_precision),
                ),
            )
            _capture.record(
                self.name, "coordinator", "distributed.response",
                response[1], payload=float(response[0]),
            )
        return response


@dataclass
class ShardSketch:
    """A shipped shard sparsifier: the sample plus its bit size."""

    epsilon: float
    sparse: "DiGraph"

    @property
    def sparse_graph(self) -> "DiGraph":
        """The reweighted directed sample (a copy)."""
        return self.sparse.copy()

    def size_bits(self) -> int:
        """Edge-list bits of the sample, counting each undirected edge once."""
        return graph_size_bits(self.sparse) // 2


def partition_edges(
    graph: UGraph, num_servers: int, rng: RngLike = None
) -> List[Server]:
    """Randomly shard a graph's edges across ``num_servers`` servers.

    Every server knows the full vertex set (as in the distributed
    sketching model); only edges are split.
    """
    if num_servers < 1:
        raise ParameterError("num_servers must be positive")
    gen = ensure_rng(rng)
    shards = [UGraph(nodes=graph.nodes()) for _ in range(num_servers)]
    for u, v, w in graph.edges():
        shards[int(gen.integers(0, num_servers))].add_edge(u, v, w)
    return [Server(name=f"server-{i}", shard=s) for i, s in enumerate(shards)]
