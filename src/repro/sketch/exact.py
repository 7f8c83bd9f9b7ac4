"""The exact cut sketch: store the whole graph.

Trivially both a for-each and a for-all sketch (with ``eps = 0``).  Used
as the ground-truth reference in every game and as the upper end of the
size-versus-accuracy trade-off in the sparsifier benchmarks.
"""

from __future__ import annotations

from typing import AbstractSet, List, Optional, Sequence

import numpy as np

from repro.graphs.digraph import DiGraph, Node
from repro.sketch.base import CutSketch, SketchModel
from repro.sketch.serialization import DEFAULT_WEIGHT_BITS, graph_size_bits


class ExactCutSketch(CutSketch):
    """Stores the graph's frozen snapshot and answers cuts exactly.

    The snapshot (``graph.freeze()``) is immutable, so later mutations of
    ``graph`` do not reach the sketch.  A single :meth:`query` answers
    from a dict graph thawed from it on first use, ordered like
    ``graph.copy()``, so it sums every cut exactly as a copy would.
    """

    def __init__(self, graph: DiGraph, weight_bits: int = DEFAULT_WEIGHT_BITS):
        self._csr = graph.freeze()
        self._graph: Optional[DiGraph] = None
        self._weight_bits = weight_bits

    @property
    def model(self) -> SketchModel:
        return SketchModel.EXACT

    @property
    def epsilon(self) -> float:
        return 0.0

    def query(self, side: AbstractSet[Node]) -> float:
        """Exact ``w(S, V \\ S)``."""
        self._obs_queries(1)
        if self._graph is None:
            self._graph = self._csr.to_digraph()
        return self._graph.cut_weight(side)

    def query_many(self, sides: Sequence[AbstractSet[Node]]) -> List[float]:
        """Batched exact answers via the snapshot's CSR kernel."""
        self._obs_queries(len(sides))
        csr = self._csr
        member = csr.membership_matrix(sides)
        csr.check_proper(member)
        return csr.cut_weights(member).tolist()

    def query_rows(self, labels: Sequence[Node], member: np.ndarray) -> np.ndarray:
        """Exact answers for the boolean rows ``member`` (columns follow
        ``labels``) as a float64 array: :meth:`query_many` of the same
        sides, value for value, without building label sets."""
        self._obs_queries(len(member))
        csr = self._csr
        member = csr.reindex_membership(labels, member)
        csr.check_proper(member)
        return csr.cut_weights(member)

    def size_bits(self) -> int:
        """Edge-list encoding of the stored graph."""
        return self._obs_size(graph_size_bits(self._csr, self._weight_bits))
