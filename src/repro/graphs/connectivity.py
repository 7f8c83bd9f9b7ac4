"""Connectivity certificates: strong connectivity, edge-disjoint paths.

The proof of Lemma 5.5 argues that ``G_{x,y}`` is ``2*gamma``-connected by
exhibiting, for every pair ``u, v``, at least ``2*gamma`` edge-disjoint
paths (Figures 3–6 treat the four cases of which parts ``u`` and ``v``
lie in).  By Menger's theorem the number of edge-disjoint ``u``–``v``
paths equals the ``u``–``v`` max flow under unit capacities, so the
figures are certified here by flow computations rather than by the
hand-built path systems — same quantity, machine-checkable.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Hashable, List, Set, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graphs.csr import CSRGraph
from repro.graphs.digraph import DiGraph, Node
from repro.graphs.ugraph import UGraph


def is_strongly_connected(graph: DiGraph) -> bool:
    """Whether every node reaches every other along directed edges.

    beta-balanced graphs (Definition 2.1) are required to be strongly
    connected; all our encoders assert this on their outputs.
    """
    nodes = graph.nodes()
    if len(nodes) <= 1:
        return True
    root = nodes[0]
    if len(_reachable(graph, root, forward=True)) != len(nodes):
        return False
    return len(_reachable(graph, root, forward=False)) == len(nodes)


def _reachable(graph: DiGraph, root: Node, forward: bool) -> Set[Node]:
    seen = {root}
    stack = [root]
    while stack:
        cur = stack.pop()
        nbrs = (
            graph.iter_successors(cur) if forward else graph.iter_predecessors(cur)
        )
        for nxt, _ in nbrs:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _unit_snapshot(graph: UGraph) -> CSRGraph:
    """Unit-capacity view of an undirected graph's CSR snapshot.

    ``graph.freeze()`` already stores each edge in both directions, so
    swapping its weights for ones gives the unit-capacity bidirected
    network.  Flows on it are integers, so the path counts do not
    depend on the arc order.  Built once per certification batch; its
    residual network is then reused by every flow call.
    """
    csr = graph.freeze()
    return CSRGraph(csr.labels, csr.tails, csr.heads, np.ones(csr.num_edges))


def _unit_flow_value(unit: CSRGraph, u: Node, v: Node) -> int:
    if u == v:
        raise GraphError("endpoints must differ")
    return int(round(unit.max_flow(unit.index_of(u), unit.index_of(v)).value))


def edge_disjoint_path_count(graph: UGraph, u: Node, v: Node) -> int:
    """Maximum number of edge-disjoint ``u``–``v`` paths (Menger).

    The graph is treated as unweighted: every present edge has capacity 1
    regardless of stored weight, matching Section 5's unweighted model.
    """
    return _unit_flow_value(_unit_snapshot(graph), u, v)


def edge_connectivity(graph: UGraph) -> int:
    """Global edge connectivity ``min_{u,v} maxflow(u, v)``.

    Computed with ``n - 1`` flow calls from a fixed root (the global
    minimum separates the root from someone); all calls share one frozen
    unit-capacity snapshot.
    """
    nodes = graph.nodes()
    if len(nodes) < 2:
        raise GraphError("edge connectivity needs at least two nodes")
    unit = _unit_snapshot(graph)
    root = nodes[0]
    best = math.inf
    for other in nodes[1:]:
        best = min(best, _unit_flow_value(unit, root, other))
        if best == 0:
            break
    return int(best)


def is_gamma_connected(graph: UGraph, gamma: int) -> bool:
    """Whether at least ``gamma`` edges must be removed to disconnect.

    This is the property the Lemma 5.5 proof establishes for
    ``gamma = 2 * INT(x, y)``.
    """
    if gamma < 0:
        raise GraphError("gamma must be non-negative")
    if gamma == 0:
        return True
    if graph.num_nodes < 2:
        return True
    return edge_connectivity(graph) >= gamma


def certify_pairwise_connectivity(
    graph: UGraph, pairs: List[Tuple[Node, Node]], gamma: int
) -> Dict[Tuple[Node, Node], int]:
    """Edge-disjoint path counts for the given pairs, checked >= gamma.

    Returns the per-pair counts; raises :class:`GraphError` naming the
    first failing pair.  Benchmarks E7 feed this the representative
    ``(u, v)`` pairs of Figures 3–6.
    """
    unit = _unit_snapshot(graph)
    counts: Dict[Tuple[Node, Node], int] = {}
    for u, v in pairs:
        count = _unit_flow_value(unit, u, v)
        counts[(u, v)] = count
        if count < gamma:
            raise GraphError(
                f"pair ({u!r}, {v!r}) admits only {count} edge-disjoint "
                f"paths; {gamma} required"
            )
    return counts
