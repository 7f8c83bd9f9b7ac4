"""Alice's side of the for-all lower bound (Lemma 4.2 / Theorem 1.2).

Each Gap-Hamming string ``s_{i,j} in {0,1}^{1/eps^2}`` is written onto
the forward edges from left node ``l_i`` of ``V_p`` to the right cluster
``R_j`` of ``V_{p+1}``: the edge to the ``v``-th node of ``R_j`` gets
weight ``s_{i,j}(v) + 1`` (i.e. 1 or 2).  Every backward edge has weight
``1/beta``, so the graph is ``2 beta``-balanced by the edgewise
criterion (forward weight <= 2 against reverse weight ``1/beta``).

The topology depends only on the parameters, so the skeleton and every
encoding share one CSR layout (:func:`_layout`): each graph holds its
frozen snapshot and builds its dict adjacency only when something reads
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from repro.errors import ParameterError
from repro.forall_lb.params import ForAllParams
from repro.graphs.csr import BicliqueLayout, CSRGraph
from repro.graphs.digraph import DiGraph
from repro.utils.bitstrings import BitString


@dataclass
class ForAllEncodedGraph:
    """Alice's output graph plus its parameters."""

    graph: DiGraph
    params: ForAllParams


def _skeleton_graph(params: ForAllParams) -> DiGraph:
    """Forward edges at base weight 1 and backward edges at ``1/beta``."""
    graph = DiGraph()
    for pair in range(params.num_groups - 1):
        left = params.group_nodes(pair)
        right = params.group_nodes(pair + 1)
        # Forward and backward edges fill disjoint dicts, so two bulk
        # writes leave every dict as the interleaved edge loop did.
        edges = len(left) * len(right)
        graph.add_biclique(left, right, [1.0] * edges)
        graph.add_biclique(right, left, [params.backward_weight] * edges)
    return graph


@lru_cache(maxsize=8)
def _layout(params: ForAllParams) -> BicliqueLayout:
    """The CSR layout of the skeleton and of every graph encoded under
    ``params``: string ``q`` overwrites the forward edges from ``l_i`` to
    ``R_j`` (biclique ``q`` of the layout) in place."""
    rows = []
    for q in range(params.num_strings):
        pair, left_index, cluster = params.locate_string(q)
        rows.append(([(pair, left_index)], params.cluster_nodes(pair + 1, cluster)))
    return BicliqueLayout.of(_skeleton_graph(params), rows)


class ForAllEncoder:
    """Encode Gap-Hamming string families into (2 beta)-balanced graphs."""

    def __init__(self, params: ForAllParams):
        self.params = params
        # Shared by every encoder and decoder of these parameters, and
        # built here, before a game's pool forks, so its workers inherit it.
        self._layout = _layout(params)

    def skeleton(self) -> DiGraph:
        """The string-independent part: backward edges plus base weight 1.

        Public knowledge — Bob rebuilds it to subtract the fixed part of
        his cut queries.  Forward edges appear with their base weight 1;
        only the 0/1 string bit on top is Alice's secret.  Returns a
        fresh graph the caller may mutate; it holds its snapshot and
        builds its dicts on first read.
        """
        return DiGraph.from_snapshot(
            self._layout.snapshot(), partial(_skeleton_graph, self.params)
        )

    def encode(self, strings: Sequence[BitString]) -> ForAllEncodedGraph:
        """Build the graph encoding ``strings`` (one per ``(l_i, R_j)``).

        ``strings`` must contain ``params.num_strings`` binary strings of
        length ``1/eps^2``, ordered by :meth:`ForAllParams.locate_string`.
        The graph holds its frozen snapshot; its dicts are built on first
        read, by the edge loop of :meth:`_dict_graph`.
        """
        params = self.params
        if len(strings) != params.num_strings:
            raise ParameterError(
                f"expected {params.num_strings} strings, got {len(strings)}"
            )
        bits = np.empty((params.num_strings, params.string_length))
        for q, s in enumerate(strings):
            s = np.asarray(s)
            if s.shape != (params.string_length,):
                raise ParameterError(
                    f"string {q} must have length {params.string_length}"
                )
            if not np.all((s == 0) | (s == 1)):
                raise ParameterError(f"string {q} entries must be 0/1")
            bits[q] = s
        snapshot = self._layout.snapshot(1.0 + bits)
        return ForAllEncodedGraph(
            graph=DiGraph.from_snapshot(
                snapshot, partial(self._dict_graph, snapshot)
            ),
            params=params,
        )

    def _dict_graph(self, snapshot: CSRGraph) -> DiGraph:
        """The encoded graph as dict writes build it: the skeleton, then
        one ``add_edge`` per forward edge of each string's row, set to
        the weight ``snapshot`` gives it."""
        params = self.params
        graph = _skeleton_graph(params)
        for q, weights in enumerate(self._layout.block_weights(snapshot)):
            pair, left_index, cluster = params.locate_string(q)
            u = (pair, left_index)
            for v, weight in zip(
                params.cluster_nodes(pair + 1, cluster), weights.tolist()
            ):
                graph.add_edge(u, v, weight, combine="set")
        return graph
