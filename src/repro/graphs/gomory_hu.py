"""Gomory–Hu trees: all-pairs minimum cuts from ``n - 1`` flows.

A Gomory–Hu tree of an undirected weighted graph is a weighted tree on
the same vertex set such that for every pair ``(u, v)`` the minimum
``u``–``v`` cut value equals the smallest edge weight on the tree path
between them, and the corresponding tree edge's two components give a
minimum cut.

Used here as (a) an independent cross-check of the flow and min-cut
routines, and (b) a compact "for-all cut oracle for pairwise min cuts"
in the distributed example — a classical structure worth having in any
cut-sketching library.

Implementation: Gusfield's simplification (no node contraction), which
produces a valid Gomory–Hu tree for undirected graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Set, Tuple

from repro.errors import GraphError
from repro.graphs.maxflow import bidirected, max_flow
from repro.graphs.ugraph import Node, UGraph


@dataclass
class GomoryHuTree:
    """The tree: ``parent`` pointers with ``parent_weight`` per node."""

    root: Node
    parent: Dict[Node, Node]
    parent_weight: Dict[Node, float]

    def min_cut_value(self, u: Node, v: Node) -> float:
        """Minimum ``u``–``v`` cut value via the tree path."""
        if u == v:
            raise GraphError("endpoints must differ")
        path_u = self._path_to_root(u)
        path_v = self._path_to_root(v)
        set_u = {node for node, _ in path_u}
        # Find the lowest common ancestor by walking v's path.
        lca = self.root
        for node, _ in path_v:
            if node in set_u:
                lca = node
                break
        best = math.inf
        for node, weight in path_u:
            if node == lca:
                break
            best = min(best, weight)
        for node, weight in path_v:
            if node == lca:
                break
            best = min(best, weight)
        return best

    def _path_to_root(self, node: Node) -> List[Tuple[Node, float]]:
        """Nodes from ``node`` up to the root with the weight *above* each.

        The returned list pairs each non-root node with the weight of the
        tree edge to its parent; the root appears last with weight inf.
        """
        if node not in self.parent and node != self.root:
            raise GraphError(f"unknown node {node!r}")
        path: List[Tuple[Node, float]] = []
        cur = node
        while cur != self.root:
            path.append((cur, self.parent_weight[cur]))
            cur = self.parent[cur]
        path.append((self.root, math.inf))
        return path

    def global_min_cut_value(self) -> float:
        """Global min cut = lightest tree edge."""
        if not self.parent_weight:
            raise GraphError("tree has a single node; no cuts exist")
        return min(self.parent_weight.values())

    def tree_edges(self) -> List[Tuple[Node, Node, float]]:
        """All ``(child, parent, weight)`` tree edges."""
        return [
            (child, self.parent[child], self.parent_weight[child])
            for child in self.parent
        ]


def gomory_hu_tree(graph: UGraph) -> GomoryHuTree:
    """Build a Gomory–Hu tree with Gusfield's algorithm.

    Requires a connected graph with at least two nodes (disconnected
    graphs have pairwise min cut 0 between components; callers should
    handle components separately).
    """
    nodes = graph.nodes()
    if len(nodes) < 2:
        raise GraphError("Gomory–Hu tree needs at least two nodes")
    root = nodes[0]
    parent: Dict[Node, Node] = {node: root for node in nodes[1:]}
    parent_weight: Dict[Node, float] = {}
    directed = bidirected(graph)
    for i in range(1, len(nodes)):
        u = nodes[i]
        p = parent[u]
        result = max_flow(directed, u, p)
        parent_weight[u] = result.value
        side = result.source_side
        for j in range(i + 1, len(nodes)):
            v = nodes[j]
            if v in side and parent[v] == p:
                parent[v] = u
        # Gusfield adjustment for the grandparent when it is on u's side.
        if p != root and parent[p] in side:
            parent[u] = parent[p]
            parent[p] = u
            parent_weight[u] = parent_weight[p]
            parent_weight[p] = result.value
    return GomoryHuTree(root=root, parent=parent, parent_weight=parent_weight)
