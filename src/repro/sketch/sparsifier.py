"""Cut sparsifiers for undirected graphs (the upper-bound substrate).

Two samplers:

* :func:`uniform_sparsify` — keep every edge independently with a fixed
  probability ``p`` and reweight by ``1/p``.  Unbiased for every cut;
  concentrates when ``p * mincut >> log n`` (Karger sampling).  This is
  also the engine inside VERIFY-GUESS (Lemma 5.8).
* :func:`importance_sparsify` — Benczur–Karger-flavoured importance
  sampling: edge ``e`` is kept with probability
  ``p_e = min(1, c * ln(n) / (eps^2 * lambda_e))`` where ``lambda_e`` is
  (a lower bound on) the local edge connectivity between its endpoints,
  and reweighted by ``1/p_e``.  Produces ``O(n log n / eps^2)`` edges on
  well-connected graphs — the classical for-all size the paper's
  Section 1 recounts.

``connectivity="exact"`` computes ``lambda_e`` by max flow (fine at
simulator scale); ``connectivity="mincut"`` uses the global min cut as a
uniform lower bound (cheaper, more edges kept).
"""

from __future__ import annotations

import math
from typing import AbstractSet, Dict, Tuple

from repro.errors import ParameterError, SketchError
from repro.graphs.digraph import DiGraph, Node
from repro.graphs.maxflow import bidirected, max_flow
from repro.graphs.mincut import stoer_wagner
from repro.graphs.ugraph import UGraph
from repro.sketch.base import CutSketch, SketchModel
from repro.sketch.serialization import graph_size_bits
from repro.utils.rng import RngLike, ensure_rng

#: Oversampling constant in ``p_e``.  Theory wants a large constant; at
#: simulator scale 0.75 already gives sub-eps empirical error on the
#: workloads in the benchmarks while keeping the sparsifier visibly
#: smaller than the input.
DEFAULT_SAMPLING_CONSTANT = 0.75


def uniform_sparsify(graph: UGraph, keep_prob: float, rng: RngLike = None) -> UGraph:
    """Keep each edge with probability ``keep_prob``; reweight by 1/p."""
    if not 0.0 < keep_prob <= 1.0:
        raise ParameterError("keep_prob must be in (0, 1]")
    gen = ensure_rng(rng)
    out = UGraph(nodes=graph.nodes())
    for u, v, w in graph.edges():
        if gen.random() < keep_prob:
            out.add_edge(u, v, w / keep_prob)
    return out


def _edge_connectivity_lower_bounds(
    graph: UGraph, mode: str
) -> Dict[Tuple[Node, Node], float]:
    """Per-edge connectivity estimates ``lambda_e`` (weighted)."""
    bounds: Dict[Tuple[Node, Node], float] = {}
    if mode == "mincut":
        global_min, _ = stoer_wagner(graph)
        if global_min <= 0:
            raise SketchError("graph must be connected to sparsify")
        for u, v, _ in graph.edges():
            bounds[(u, v)] = global_min
        return bounds
    if mode == "exact":
        directed = bidirected(graph)
        for u, v, _ in graph.edges():
            bounds[(u, v)] = max_flow(directed, u, v).value
        return bounds
    raise ParameterError(f"unknown connectivity mode {mode!r}")


def importance_sparsify(
    graph: UGraph,
    epsilon: float,
    rng: RngLike = None,
    constant: float = DEFAULT_SAMPLING_CONSTANT,
    connectivity: str = "exact",
) -> UGraph:
    """Benczur–Karger-style importance-sampled cut sparsifier.

    Unbiased for every cut; empirical for-all error is checked against
    ``epsilon`` in the tests on exhaustively-enumerable graphs.
    """
    if not 0.0 < epsilon < 1.0:
        raise ParameterError("epsilon must be in (0, 1)")
    if not constant > 0:
        raise SketchError("sampling constant must be positive")
    if graph.num_nodes < 2:
        raise ParameterError("graph must have at least two nodes")
    gen = ensure_rng(rng)
    n = graph.num_nodes
    lambdas = _edge_connectivity_lower_bounds(graph, connectivity)
    out = UGraph(nodes=graph.nodes())
    for u, v, w in graph.edges():
        lam = lambdas[(u, v)]
        if lam <= 0:
            raise SketchError("graph must be connected to sparsify")
        prob = min(1.0, constant * math.log(max(2, n)) / (epsilon**2 * lam))
        if gen.random() < prob:
            out.add_edge(u, v, w / prob)
    return out


class SparsifierSketch(CutSketch):
    """A for-all cut sketch backed by an importance-sampled sparsifier.

    Works on directed graphs by sparsifying undirected *weight-classes*:
    each ordered pair keeps its own directed weight share, so directed
    cut queries remain unbiased.  For the pure undirected use case wrap
    the graph with :meth:`from_undirected`.
    """

    def __init__(
        self,
        graph: DiGraph,
        epsilon: float,
        rng: RngLike = None,
        constant: float = DEFAULT_SAMPLING_CONSTANT,
        connectivity: str = "exact",
    ):
        if not 0.0 < epsilon < 1.0:
            raise SketchError("epsilon must be in (0, 1)")
        if not constant > 0:
            raise SketchError("sampling constant must be positive")
        self._epsilon = epsilon
        gen = ensure_rng(rng)
        undirected = UGraph(nodes=graph.nodes())
        for u, v, w in graph.edges():
            undirected.add_edge(u, v, w, combine="add")
        lambdas = _edge_connectivity_lower_bounds(undirected, connectivity)
        sparse = DiGraph(nodes=graph.nodes())
        seen = set()
        for u, v, w_uv in graph.edges():
            key = frozenset((u, v))
            if key in seen:
                continue
            seen.add(key)
            w_vu = graph.weight(v, u)
            lam_key = (u, v) if (u, v) in lambdas else (v, u)
            lam = lambdas[lam_key]
            if lam <= 0:
                raise SketchError("underlying undirected graph must be connected")
            prob = min(
                1.0,
                constant * math.log(max(2, graph.num_nodes)) / (epsilon**2 * lam),
            )
            if gen.random() < prob:
                if w_uv > 0:
                    sparse.add_edge(u, v, w_uv / prob)
                if w_vu > 0:
                    sparse.add_edge(v, u, w_vu / prob)
        self._sparse = sparse

    @classmethod
    def from_undirected(
        cls, graph: UGraph, epsilon: float, rng: RngLike = None, **kwargs
    ) -> "SparsifierSketch":
        """Sparsify an undirected graph (each edge stored once per direction).

        Cut queries on the result return the undirected cut value because
        both directions are sampled together and ``w(S, V\\S)`` sums the
        ``u -> v`` copies with ``u in S``.
        """
        directed = DiGraph(nodes=graph.nodes())
        for u, v, w in graph.edges():
            directed.add_edge(u, v, w)
            directed.add_edge(v, u, w)
        return cls(directed, epsilon, rng=rng, **kwargs)

    @property
    def model(self) -> SketchModel:
        return SketchModel.FOR_ALL

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def sparse_graph(self) -> DiGraph:
        """The reweighted sample (a copy)."""
        return self._sparse.copy()

    def query(self, side: AbstractSet[Node]) -> float:
        """Cut value in the sparsifier — an unbiased estimate of w(S, V\\S)."""
        self._obs_queries(1)
        return self._sparse.cut_weight(side)

    def query_many(self, sides) -> list:
        """Batched estimates via the sparse graph's CSR kernel."""
        self._obs_queries(len(sides))
        csr = self._sparse.freeze()
        member = csr.membership_matrix(sides)
        csr.check_proper(member)
        return csr.cut_weights(member).tolist()

    def size_bits(self) -> int:
        return self._obs_size(graph_size_bits(self._sparse))
