"""The dict-of-dicts Karger contraction, kept as the kernel's oracle.

``_one_contraction_run`` is the contraction ``repro.graphs.mincut`` ran
before the ``karger_runs`` kernel slot, unchanged; ``karger_min_cut``
and ``sample_near_min_cuts`` here are the wrappers that called it.  The
kernel must reproduce all three bit for bit, and leave the generator in
the same state.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import GraphError
from repro.graphs.digraph import Node
from repro.graphs.mincut import stoer_wagner
from repro.graphs.ugraph import UGraph
from repro.utils.rng import RngLike, ensure_rng


def karger_min_cut(
    graph: UGraph, trials: Optional[int] = None, rng: RngLike = None
) -> Tuple[float, FrozenSet[Node]]:
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
