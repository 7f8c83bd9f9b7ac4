"""Global minimum cut algorithms.

Three independent implementations, used to cross-check one another:

* :func:`stoer_wagner` — deterministic ``O(n^3)`` global min cut for
  undirected weighted graphs, run by the selected kernel backend.  This
  is the reference algorithm behind Lemma 5.5's
  ``MINCUT(G_{x,y}) = 2 INT(x, y)`` experiments.
  :func:`snapshot_min_cut_value` runs the same kernel on a snapshot
  built without a dict graph, such as a VERIFY-GUESS sample.
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
from repro.graphs.ugraph import UGraph
from repro.kernels import get_backend, mark_use
from repro.kernels.reference import SUM_IS_COMPENSATED
from repro.obs import STATE as _OBS
from repro.obs import count as _obs_count
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
    value, side = _stoer_wagner_kernel(csr)
    return value, csr.side_from_row(side)


def snapshot_min_cut_value(csr: CSRGraph) -> float:
    """Global min-cut value of an undirected snapshot; 0.0 if disconnected.

    ``csr`` stores each edge in both directions, as ``UGraph.freeze()``
    does.  Up to the dense limit this is one Stoer–Wagner kernel call,
    which on a disconnected snapshot returns exactly 0.0: some phase
    ends on a node with no edge into the set, and its cut is a sum of
    zeros.  Above the limit a disconnected snapshot returns 0.0 and a
    connected one raises :class:`GraphError`, as :func:`stoer_wagner`
    does.
    """
    if csr.num_nodes < 2:
        raise GraphError("min cut needs at least two nodes")
    if csr.num_nodes > _DENSE_N_LIMIT and not _reaches_all(csr):
        return 0.0
    return _stoer_wagner_kernel(csr)[0]


def _stoer_wagner_kernel(csr: CSRGraph) -> Tuple[float, np.ndarray]:
    """The backend's Stoer–Wagner on ``csr``'s dense weights.

    Returns the min-cut value and a ``uint8`` row marking its side.
    """
    weights = csr.adjacency_matrix()
    side = np.zeros(csr.num_nodes, dtype=np.uint8)
    backend = get_backend()
    mark_use(backend)
    return backend.stoer_wagner(weights, side), side


def _reaches_all(csr: CSRGraph) -> bool:
    """Whether node 0 reaches every node along positive-weight edges."""
    csr.residual_network().reset()
    return bool(csr.residual_side(0).all())


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
    sources s of min s-r cut).  Requires ``2(n-1)`` max-flow calls, all
    on one residual network of ``graph.freeze()``; a side is read off
    the residual graph only when a flow value beats the best so far.
    """
    nodes = graph.nodes()
    if len(nodes) < 2:
        raise GraphError("min cut needs at least two nodes")
    csr = graph.freeze()
    best_value = math.inf
    best_side: FrozenSet[Node] = frozenset()
    for other in range(1, len(nodes)):
        for source, sink in ((0, other), (other, 0)):
            if _OBS.enabled:
                _obs_count("maxflow.calls.csr")
            value = csr.max_flow_value(source, sink)
            if value < best_value:
                best_value = value
                best_side = csr.side_from_row(csr.residual_side(source))
    return best_value, best_side
