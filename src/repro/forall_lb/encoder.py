"""Alice's side of the for-all lower bound (Lemma 4.2 / Theorem 1.2).

Each Gap-Hamming string ``s_{i,j} in {0,1}^{1/eps^2}`` is written onto
the forward edges from left node ``l_i`` of ``V_p`` to the right cluster
``R_j`` of ``V_{p+1}``: the edge to the ``v``-th node of ``R_j`` gets
weight ``s_{i,j}(v) + 1`` (i.e. 1 or 2).  Every backward edge has weight
``1/beta``, so the graph is ``2 beta``-balanced by the edgewise
criterion (forward weight <= 2 against reverse weight ``1/beta``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.forall_lb.params import ForAllParams
from repro.graphs.digraph import DiGraph
from repro.utils.bitstrings import BitString


@dataclass
class ForAllEncodedGraph:
    """Alice's output graph plus its parameters."""

    graph: DiGraph
    params: ForAllParams


class ForAllEncoder:
    """Encode Gap-Hamming string families into (2 beta)-balanced graphs."""

    def __init__(self, params: ForAllParams):
        self.params = params

    def skeleton(self) -> DiGraph:
        """The string-independent part: backward edges plus base weight 1.

        Public knowledge — Bob rebuilds it to subtract the fixed part of
        his cut queries.  Forward edges appear with their base weight 1;
        only the 0/1 string bit on top is Alice's secret.
        """
        params = self.params
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

    def encode(self, strings: Sequence[BitString]) -> ForAllEncodedGraph:
        """Build the graph encoding ``strings`` (one per ``(l_i, R_j)``).

        ``strings`` must contain ``params.num_strings`` binary strings of
        length ``1/eps^2``, ordered by :meth:`ForAllParams.locate_string`.
        """
        params = self.params
        if len(strings) != params.num_strings:
            raise ParameterError(
                f"expected {params.num_strings} strings, got {len(strings)}"
            )
        graph = self.skeleton()
        for q, s in enumerate(strings):
            s = np.asarray(s)
            if s.shape != (params.string_length,):
                raise ParameterError(
                    f"string {q} must have length {params.string_length}"
                )
            if not np.all((s == 0) | (s == 1)):
                raise ParameterError(f"string {q} entries must be 0/1")
            pair, left_index, cluster = params.locate_string(q)
            u = (pair, left_index)
            for v, bit in zip(params.cluster_nodes(pair + 1, cluster), s):
                graph.add_edge(u, v, 1.0 + float(bit), combine="set")
        return ForAllEncodedGraph(graph=graph, params=params)
