"""Label-level maximum flow and s-t min cuts over the CSR snapshot.

:func:`max_flow` runs the snapshot's integer-indexed Dinic
(:meth:`repro.graphs.csr.CSRGraph.max_flow`) and maps the answer back
to node labels.  Gomory–Hu tree construction and the sparsifier's
exact edge connectivities call it; the directed global min cut and the
Lemma 5.5 / Figures 3–6 path counts call the snapshot's flow value
directly.  Dinic's algorithm runs in ``O(V^2 E)`` in general and
``O(E sqrt(V))`` on unit-capacity graphs, which covers everything we
do at simulator scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Tuple

from repro.errors import GraphError
from repro.graphs.digraph import DiGraph, Node
from repro.graphs.ugraph import UGraph
from repro.obs import STATE as _OBS
from repro.obs import count as _obs_count


@dataclass
class FlowResult:
    """Outcome of a max-flow computation."""

    value: float
    #: Nodes reachable from the source in the final residual graph; this
    #: is the source side of a minimum s-t cut.
    source_side: FrozenSet[Node]
    #: Builds :attr:`edge_flows`; called once, on its first read.
    flows_builder: Callable[[], Dict[Tuple[Node, Node], float]] = field(
        repr=False, compare=False
    )

    @cached_property
    def edge_flows(self) -> Dict[Tuple[Node, Node], float]:
        """Flow on each original directed edge (u, v) -> f >= 0."""
        return self.flows_builder()


def max_flow(graph: DiGraph, source: Node, sink: Node) -> FlowResult:
    """Max flow from ``source`` to ``sink`` in a weighted digraph.

    Edge weights are used as capacities.  The returned
    :attr:`FlowResult.source_side` certifies a minimum s-t cut of the
    same value (max-flow/min-cut duality, asserted in tests).

    Runs the integer-indexed Dinic on the graph's cached CSR snapshot:
    residual arc arrays are built straight from the snapshot's flat edge
    arrays, with no per-call neighbor-dict copies, and the snapshot
    itself is reused across the repeated flow calls of Gomory–Hu and
    sparsifier connectivity.  :attr:`FlowResult.edge_flows` is built on
    first read.
    """
    if not graph.has_node(source) or not graph.has_node(sink):
        raise GraphError("source and sink must be nodes of the graph")
    if _OBS.enabled:
        _obs_count("maxflow.calls.csr")
    csr = graph.freeze()
    result = csr.max_flow(csr.index_of(source), csr.index_of(sink))
    labels = csr.labels

    def label_flows() -> Dict[Tuple[Node, Node], float]:
        return {
            (labels[u], labels[v]): f
            for u, v, f in zip(
                csr.tails.tolist(), csr.heads.tolist(), result.edge_flows
            )
        }

    return FlowResult(
        value=result.value,
        source_side=frozenset(labels[i] for i in result.source_side),
        flows_builder=label_flows,
    )


def bidirected(graph: UGraph) -> DiGraph:
    """The digraph with arcs ``u -> v`` and ``v -> u`` per undirected edge.

    Callers running many flows on one graph build this once and reuse
    its cached CSR snapshot.
    """
    directed = DiGraph(nodes=graph.nodes())
    for u, v, w in graph.edges():
        directed.add_edge(u, v, w)
        directed.add_edge(v, u, w)
    return directed


def max_flow_undirected(graph: UGraph, source: Node, sink: Node) -> FlowResult:
    """Max flow in an undirected graph (each edge usable in either direction)."""
    return max_flow(bidirected(graph), source, sink)


def min_st_cut(graph: DiGraph, source: Node, sink: Node) -> Tuple[float, FrozenSet[Node]]:
    """Minimum s-t cut value and its source side."""
    result = max_flow(graph, source, sink)
    return result.value, result.source_side
