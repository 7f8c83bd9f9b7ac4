"""Global minimum cut algorithms.

Three independent implementations, used to cross-check one another:

* :func:`stoer_wagner` — deterministic ``O(n^3)`` global min cut for
  undirected weighted graphs, run by the selected kernel backend.  This
  is the reference algorithm behind Lemma 5.5's
  ``MINCUT(G_{x,y}) = 2 INT(x, y)`` experiments.
* :func:`karger_min_cut` — Monte-Carlo contraction; also used to *sample*
  near-minimum cuts for the distributed min-cut application (the paper's
  Section 1 observation that there are at most ``n^{O(C)}`` cuts within a
  factor ``C`` of minimum).
* :func:`directed_global_min_cut` — ``2(n-1)`` max-flow calls; the exact
  reference for directed constructions.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graphs.digraph import DiGraph, Node
from repro.graphs.maxflow import max_flow
from repro.graphs.ugraph import UGraph
from repro.kernels import get_backend, mark_use
from repro.utils.rng import RngLike, ensure_rng


def stoer_wagner(graph: UGraph) -> Tuple[float, FrozenSet[Node]]:
    """Exact global min cut of a connected undirected weighted graph.

    Returns ``(value, side)``.  Raises on graphs with fewer than two
    nodes and on connected graphs above the CSR layer's dense limit
    (2048 nodes).  Disconnected graphs return 0 with one component as
    the side.

    The backend's kernel (:func:`repro.kernels.reference.stoer_wagner`)
    runs on the dense weight matrix of ``graph.freeze()`` in ``O(n^3)``
    time and ``8 n^2`` bytes.
    """
    n = graph.num_nodes
    if n < 2:
        raise GraphError("min cut needs at least two nodes")
    components = graph.connected_components()
    if len(components) > 1:
        return 0.0, frozenset(components[0])
    csr = graph.freeze()
    weights = csr.adjacency_matrix()
    side = np.zeros(n, dtype=np.uint8)
    backend = get_backend()
    mark_use(backend)
    value = backend.stoer_wagner(weights, side)
    return value, csr.side_from_row(side)


def karger_min_cut(
    graph: UGraph, trials: Optional[int] = None, rng: RngLike = None
) -> Tuple[float, FrozenSet[Node]]:
    """Monte-Carlo global min cut by repeated random contraction.

    ``trials`` defaults to ``ceil(n^2 ln n)`` contraction rounds, giving
    success probability ``1 - 1/n`` for the true minimum.  Weighted edges
    are contracted with probability proportional to weight.
    """
    n = graph.num_nodes
    if n < 2:
        raise GraphError("min cut needs at least two nodes")
    if not graph.is_connected():
        return 0.0, frozenset(graph.connected_components()[0])
    if trials is None:
        trials = max(1, int(math.ceil(n * n * max(1.0, math.log(n)))))
    gen = ensure_rng(rng)
    best_value = math.inf
    best_side: FrozenSet[Node] = frozenset()
    for _ in range(trials):
        value, side = _one_contraction_run(graph, gen)
        if value < best_value:
            best_value = value
            best_side = side
    return best_value, best_side


def _one_contraction_run(graph: UGraph, gen) -> Tuple[float, FrozenSet[Node]]:
    """A single Karger contraction down to two super nodes."""
    adj: Dict[Node, Dict[Node, float]] = {
        u: dict(graph.neighbors(u)) for u in graph.nodes()
    }
    groups: Dict[Node, Set[Node]] = {u: {u} for u in graph.nodes()}
    while len(adj) > 2:
        edges: List[Tuple[Node, Node, float]] = []
        seen: Set[FrozenSet[Node]] = set()
        for u, nbrs in adj.items():
            for v, w in nbrs.items():
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    edges.append((u, v, w))
        total = sum(w for _, _, w in edges)
        pick = gen.uniform(0.0, total)
        acc = 0.0
        chosen = edges[-1]
        for edge in edges:
            acc += edge[2]
            if pick <= acc:
                chosen = edge
                break
        u, v, _ = chosen
        groups[u] |= groups[v]
        for nbr, w in adj[v].items():
            if nbr == u:
                continue
            adj[u][nbr] = adj[u].get(nbr, 0.0) + w
            adj[nbr][u] = adj[u][nbr]
            del adj[nbr][v]
        if v in adj[u]:
            del adj[u][v]
        del adj[v]
    (a, nbrs_a) = next(iter(adj.items()))
    value = sum(nbrs_a.values())
    return value, frozenset(groups[a])


def sample_near_min_cuts(
    graph: UGraph,
    factor: float,
    attempts: int,
    rng: RngLike = None,
) -> List[Tuple[float, FrozenSet[Node]]]:
    """Sample distinct cuts with value <= ``factor`` * mincut.

    Used by the distributed min-cut coordinator: an O(1)-approximate
    for-all sketch identifies the regime, and repeated contraction (which
    finds any ``alpha``-near-minimum cut with probability
    ``n^{-O(alpha)}``) enumerates candidate cuts that are then re-scored
    with for-each queries.
    """
    if factor < 1.0:
        raise GraphError("factor must be >= 1")
    base_value, base_side = stoer_wagner(graph)
    gen = ensure_rng(rng)
    found: Dict[FrozenSet[Node], float] = {base_side: base_value}
    threshold = factor * base_value if base_value > 0 else 0.0
    for _ in range(attempts):
        value, side = _one_contraction_run(graph, gen)
        canonical = _canonical_side(graph, side)
        if value <= threshold and canonical not in found:
            found[canonical] = value
    return sorted(
        ((value, side) for side, value in found.items()), key=lambda item: item[0]
    )


def _canonical_side(graph: UGraph, side: FrozenSet[Node]) -> FrozenSet[Node]:
    """Pick a canonical representative of {S, V\\S} for dedup."""
    nodes = graph.nodes()
    anchor = nodes[0]
    if anchor in side:
        return frozenset(side)
    return frozenset(set(nodes) - set(side))


def directed_global_min_cut(graph: DiGraph) -> Tuple[float, FrozenSet[Node]]:
    """Exact global directed min cut ``min_S w(S, V\\S)``.

    Standard reduction: fix any node ``r``; the optimal ``S`` either
    contains ``r`` (min over sinks t of min r-t cut) or not (min over
    sources s of min s-r cut).  Requires ``2(n-1)`` max-flow calls.
    """
    nodes = graph.nodes()
    if len(nodes) < 2:
        raise GraphError("min cut needs at least two nodes")
    root = nodes[0]
    best_value = math.inf
    best_side: FrozenSet[Node] = frozenset()
    for other in nodes[1:]:
        fwd = max_flow(graph, root, other)
        if fwd.value < best_value:
            best_value = fwd.value
            best_side = fwd.source_side
        bwd = max_flow(graph, other, root)
        if bwd.value < best_value:
            best_value = bwd.value
            best_side = bwd.source_side
    return best_value, best_side
