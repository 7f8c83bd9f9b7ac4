"""The object-graph Dinic, kept as the CSR max-flow kernel's oracle.

``DinicMaxFlow`` and ``_Arc`` are the solver ``repro.graphs.maxflow``
ran as its dict engine before the CSR snapshot's Dinic became its only
engine, unchanged; ``max_flow_value`` is the part of the old wrapper
that set them up.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import GraphError
from repro.graphs.digraph import DiGraph, Node

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


def max_flow_value(graph: DiGraph, source: Node, sink: Node) -> float:
    """Max-flow value from ``source`` to ``sink`` on the dict graph."""
    solver = DinicMaxFlow()
    # Register every node so isolated sources/sinks still resolve.
    for node in graph.nodes():
        solver._node_id(node)
    for u, v, w in graph.edges():
        solver.add_arc(u, v, w)
    return solver.solve(source, sink)
