"""Global minimum cut algorithms.

Three independent implementations, used to cross-check one another:

* :func:`stoer_wagner` — deterministic ``O(n^3)`` global min cut for
  undirected weighted graphs, run by the selected kernel backend.  This
  is the reference algorithm behind Lemma 5.5's
  ``MINCUT(G_{x,y}) = 2 INT(x, y)`` experiments.
* :func:`karger_min_cut` — Monte-Carlo contraction; also used to *sample*
  near-minimum cuts for the distributed min-cut application (the paper's
  Section 1 observation that there are at most ``n^{O(C)}`` cuts within a
  factor ``C`` of minimum).  Both run batches of contractions through the
  backend's ``karger_runs`` kernel over ``graph.freeze()``'s rows, which
  reproduces a contraction over neighbour dicts bit for bit (see
  :mod:`repro.kernels.reference`): each run draws ``n - 2`` uniforms, and
  its side always holds ``graph.nodes()[0]``.  Like Stoer–Wagner they
  keep ``O(n^2)`` scratch, so both raise above 2048 nodes.
* :func:`directed_global_min_cut` — ``2(n-1)`` max-flow calls; the exact
  reference for directed constructions.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graphs.csr import _DENSE_N_LIMIT, CSRGraph
from repro.graphs.digraph import DiGraph, Node
from repro.graphs.maxflow import max_flow
from repro.graphs.ugraph import UGraph
from repro.kernels import get_backend, mark_use
from repro.kernels.reference import SUM_IS_COMPENSATED
from repro.utils.rng import RngLike, ensure_rng

#: Uniforms plus side cells one batch of contraction runs may hold, so
#: ``karger_min_cut``'s ``n^2 ln n`` default trials never sit in memory
#: at once.
_RUN_CELL_BUDGET = 1 << 16


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
    are contracted with probability proportional to weight.  Returns the
    first run with the smallest value; raises above the CSR layer's dense
    limit (2048 nodes).
    """
    n = graph.num_nodes
    if n < 2:
        raise GraphError("min cut needs at least two nodes")
    if not graph.is_connected():
        return 0.0, frozenset(graph.connected_components()[0])
    if trials is None:
        trials = max(1, int(math.ceil(n * n * max(1.0, math.log(n)))))
    gen = ensure_rng(rng)
    csr = graph.freeze()
    best_value = math.inf
    best_side: FrozenSet[Node] = frozenset()
    for values, sides in _contraction_batches(csr, trials, gen):
        i = int(np.argmin(values))
        if values[i] < best_value:
            best_value = float(values[i])
            best_side = csr.side_from_row(sides[i])
    return best_value, best_side


def _contraction_batches(
    csr: CSRGraph, runs: int, gen: np.random.Generator
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """``runs`` Karger contractions of an undirected snapshot, in batches.

    Yields ``(values, sides)`` per batch: each run's cut value and a
    ``uint8`` row marking its side, which always holds node 0.  Each run
    draws its ``n - 2`` uniforms from ``gen``, one per merge; a batch
    holds at most :data:`_RUN_CELL_BUDGET` uniforms and side cells.
    """
    n = csr.num_nodes
    if n > _DENSE_N_LIMIT:
        raise GraphError(
            f"contraction is limited to {_DENSE_N_LIMIT} nodes; this graph has {n}"
        )
    if not np.isfinite(csr.weights).all():
        raise GraphError("contraction needs finite edge weights")
    batch = max(1, _RUN_CELL_BUDGET // (2 * n))
    backend = get_backend()
    mark_use(backend)
    for start in range(0, runs, batch):
        count = min(batch, runs - start)
        uniforms = gen.random(count * (n - 2))
        values = np.empty(count, dtype=np.float64)
        sides = np.empty((count, n), dtype=np.uint8)
        done = backend.karger_runs(
            csr.indptr, csr.heads, csr.weights, uniforms, SUM_IS_COMPENSATED,
            values, sides,
        )
        if done < count:
            raise GraphError(
                "contraction ran out of edges: the graph has more than two components"
            )
        yield values, sides


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
    with for-each queries.  The Stoer–Wagner minimum comes first among
    equal values, then the contraction cuts in the order first found.
    Raises on graphs of three or more components when ``attempts > 0``.
    """
    if factor < 1.0:
        raise GraphError("factor must be >= 1")
    base_value, base_side = stoer_wagner(graph)
    gen = ensure_rng(rng)
    found: Dict[FrozenSet[Node], float] = {base_side: base_value}
    threshold = factor * base_value if base_value > 0 else 0.0
    csr = graph.freeze()
    for values, sides in _contraction_batches(csr, attempts, gen):
        for i in np.flatnonzero(values <= threshold).tolist():
            side = csr.side_from_row(sides[i])
            if side not in found:
                found[side] = float(values[i])
    return sorted(
        ((value, side) for side, value in found.items()), key=lambda item: item[0]
    )


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
