"""Maximum flow via Dinic's algorithm, plus s-t min-cut extraction.

The library needs max flow in three places:

* certifying the edge-disjoint path counts of Lemma 5.5 / Figures 3–6
  (Menger's theorem: edge-disjoint ``u``–``v`` paths = max flow with unit
  capacities);
* computing global *directed* min cuts (``2(n - 1)`` flow calls, used to
  verify balance and directed cut structure on small constructions);
* Gomory–Hu tree construction.

Dinic's algorithm runs in ``O(V^2 E)`` in general and ``O(E sqrt(V))`` on
unit-capacity graphs, which covers everything we do at simulator scale.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.errors import GraphError
from repro.graphs.digraph import DiGraph, Node
from repro.graphs.ugraph import UGraph
from repro.obs import STATE as _OBS
from repro.obs import count as _obs_count

_EPS = 1e-12


@dataclass
class _Arc:
    """One direction of a residual arc."""

    head: int
    capacity: float
    flow: float = 0.0
    # Index of the reverse arc inside the head's arc list.
    rev: int = field(default=-1)

    @property
    def residual(self) -> float:
        return self.capacity - self.flow


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


class DinicMaxFlow:
    """Reusable Dinic solver over an integer-indexed residual network."""

    def __init__(self) -> None:
        self._arcs: List[List[_Arc]] = []
        self._index: Dict[Node, int] = {}
        self._labels: List[Node] = []

    def _node_id(self, node: Node) -> int:
        if node not in self._index:
            self._index[node] = len(self._labels)
            self._labels.append(node)
            self._arcs.append([])
        return self._index[node]

    def add_arc(self, u: Node, v: Node, capacity: float) -> Tuple[int, int]:
        """Add a directed arc with the given capacity; returns its handle."""
        if capacity < 0:
            raise GraphError("capacity must be non-negative")
        ui = self._node_id(u)
        vi = self._node_id(v)
        forward = _Arc(head=vi, capacity=capacity)
        backward = _Arc(head=ui, capacity=0.0)
        forward.rev = len(self._arcs[vi])
        backward.rev = len(self._arcs[ui])
        self._arcs[ui].append(forward)
        self._arcs[vi].append(backward)
        return ui, len(self._arcs[ui]) - 1

    def _bfs_levels(self, s: int, t: int) -> Optional[List[int]]:
        levels = [-1] * len(self._labels)
        levels[s] = 0
        queue = deque([s])
        while queue:
            cur = queue.popleft()
            for arc in self._arcs[cur]:
                if arc.residual > _EPS and levels[arc.head] < 0:
                    levels[arc.head] = levels[cur] + 1
                    queue.append(arc.head)
        return levels if levels[t] >= 0 else None

    def _dfs_blocking(
        self, levels: List[int], iters: List[int], u: int, t: int, pushed: float
    ) -> float:
        if u == t:
            return pushed
        while iters[u] < len(self._arcs[u]):
            arc = self._arcs[u][iters[u]]
            if arc.residual > _EPS and levels[arc.head] == levels[u] + 1:
                sent = self._dfs_blocking(
                    levels, iters, arc.head, t, min(pushed, arc.residual)
                )
                if sent > _EPS:
                    arc.flow += sent
                    self._arcs[arc.head][arc.rev].flow -= sent
                    return sent
            iters[u] += 1
        return 0.0

    def solve(self, source: Node, sink: Node) -> float:
        """Run Dinic from ``source`` to ``sink``; returns the flow value."""
        if source not in self._index or sink not in self._index:
            raise GraphError("source and sink must have incident arcs")
        if source == sink:
            raise GraphError("source and sink must differ")
        s = self._index[source]
        t = self._index[sink]
        total = 0.0
        while True:
            levels = self._bfs_levels(s, t)
            if levels is None:
                return total
            iters = [0] * len(self._labels)
            while True:
                sent = self._dfs_blocking(levels, iters, s, t, float("inf"))
                if sent <= _EPS:
                    break
                total += sent

    def reachable_from(self, source: Node) -> FrozenSet[Node]:
        """Residual-reachable nodes: the source side of a min s-t cut."""
        if source not in self._index:
            raise GraphError(f"unknown node {source!r}")
        seen = {self._index[source]}
        stack = [self._index[source]]
        while stack:
            cur = stack.pop()
            for arc in self._arcs[cur]:
                if arc.residual > _EPS and arc.head not in seen:
                    seen.add(arc.head)
                    stack.append(arc.head)
        return frozenset(self._labels[i] for i in seen)


def max_flow(
    graph: DiGraph, source: Node, sink: Node, engine: str = "csr"
) -> FlowResult:
    """Max flow from ``source`` to ``sink`` in a weighted digraph.

    Edge weights are used as capacities.  The returned
    :attr:`FlowResult.source_side` certifies a minimum s-t cut of the
    same value (max-flow/min-cut duality, asserted in tests).

    ``engine="csr"`` (default) runs the integer-indexed Dinic fast path
    on the graph's cached CSR snapshot — residual arc arrays are built
    straight from the snapshot's flat edge arrays, with no per-call
    neighbor-dict copies, and the snapshot itself is reused across the
    repeated flow calls of Gomory–Hu and sparsifier connectivity.  :attr:`FlowResult.edge_flows` is built on first read.
    ``engine="dict"`` is the original object-graph Dinic, kept as the
    reference implementation.
    """
    if not graph.has_node(source) or not graph.has_node(sink):
        raise GraphError("source and sink must be nodes of the graph")
    if _OBS.enabled:
        _obs_count(f"maxflow.calls.{engine}")
    if engine == "csr":
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
    if engine != "dict":
        raise GraphError(f"unknown max-flow engine {engine!r}")
    solver = DinicMaxFlow()
    # Register every node so isolated sources/sinks still resolve.
    for node in graph.nodes():
        solver._node_id(node)
    handles: Dict[Tuple[Node, Node], Tuple[int, int]] = {}
    for u, v, w in graph.edges():
        handles[(u, v)] = solver.add_arc(u, v, w)
    value = solver.solve(source, sink)
    flows = {
        edge: max(0.0, solver._arcs[ui][ai].flow)
        for edge, (ui, ai) in handles.items()
    }
    return FlowResult(
        value=value,
        source_side=solver.reachable_from(source),
        flows_builder=lambda: flows,
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
