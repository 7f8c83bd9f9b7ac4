"""Alice's side of the for-each lower bound (Lemma 3.3 / Theorem 1.1).

Given a sign string ``s``, build the balanced digraph ``G`` that encodes
it.  The nodes are partitioned into ``ell`` groups of ``k = sqrt(beta)/eps``;
consecutive groups carry a complete bipartite gadget.  Within the pair
``(V_p, V_{p+1})``, the left side is divided into ``sqrt(beta)`` clusters
``L_1..L_{sqrt(beta)}`` and the right side into ``R_1..R_{sqrt(beta)}``,
each of ``1/eps`` nodes.  The substring assigned to ``(L_i, R_j)`` is
superposed over the ``1/eps^2`` forward edges via Lemma 3.2:

    ``x = sum_t z_t M_t``,   ``w = eps * x + 2 c1 ln(1/eps) * 1``

when ``||x||_inf <= c1 ln(1/eps)/eps`` (a 99% event, by Chernoff);
otherwise the block writes the constant vector, marking the encoding
failed (Bob then answers at chance for those bits — the 1% slack the
proof budgets for).  Every backward edge has weight ``1/beta``, making
the graph ``O(beta log(1/eps))``-balanced by the edgewise criterion.

The topology depends only on the parameters, so every encoding shares
one CSR layout (:func:`_layout`): ``encode`` writes the block weights
into a copy of the layout's weights and returns a graph holding that
snapshot, whose dict adjacency is built only when something reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import List, Sequence, Set, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.foreach_lb.params import ForEachParams, NodeLabel
from repro.graphs.csr import BicliqueLayout, CSRGraph
from repro.graphs.digraph import DiGraph
from repro.linalg.hadamard import Lemma32Matrix
from repro.utils.bitstrings import SignString

#: The paper's ``c1``: the Chernoff cap on ``||x||_inf`` is
#: ``c1 * ln(1/eps) / eps``.  Chosen so the cap holds with probability
#: >= 0.99 at every block size we run (see tests/foreach_lb).
DEFAULT_C1 = 4.0

#: A Lemma 3.2 block: ``(pair, cluster_i, cluster_j)``.
Block = Tuple[int, int, int]


@dataclass
class EncodedGraph:
    """Alice's output: the graph plus encoding metadata.

    ``failed_blocks`` lists the ``(pair, cluster_i, cluster_j)`` blocks
    whose superposition exceeded the weight cap and fell back to the
    constant vector (bits in those blocks are unrecoverable by design).
    """

    graph: DiGraph
    params: ForEachParams
    c1: float
    failed_blocks: Set[Tuple[int, int, int]] = field(default_factory=set)

    @property
    def weight_floor(self) -> float:
        """Minimum possible forward-edge weight, ``c1 ln(1/eps)``."""
        return self.c1 * math.log(self.params.inv_eps)

    @property
    def weight_ceiling(self) -> float:
        """Maximum possible forward-edge weight, ``3 c1 ln(1/eps)``."""
        return 3.0 * self.c1 * math.log(self.params.inv_eps)


def _blocks(params: ForEachParams) -> List[Block]:
    """Every block, in the order the string fills them."""
    return [
        (pair, cluster_i, cluster_j)
        for pair in range(params.num_groups - 1)
        for cluster_i in range(params.sqrt_beta)
        for cluster_j in range(params.sqrt_beta)
    ]


def _block_nodes(
    params: ForEachParams, block: Block
) -> Tuple[Sequence[NodeLabel], Sequence[NodeLabel]]:
    """The clusters ``(L_i, R_j)`` a block's forward edges join."""
    pair, cluster_i, cluster_j = block
    return (
        params.cluster_nodes(pair, cluster_i),
        params.cluster_nodes(pair + 1, cluster_j),
    )


def _skeleton_graph(params: ForEachParams) -> DiGraph:
    """The backward edges of every group pair, in one bulk write each."""
    graph = DiGraph()
    for pair in range(params.num_groups - 1):
        left = params.group_nodes(pair)
        right = params.group_nodes(pair + 1)
        graph.add_nodes(left)
        graph.add_biclique(
            right, left, [params.backward_weight] * (len(left) * len(right))
        )
    return graph


def _write_block(
    graph: DiGraph, params: ForEachParams, block: Block, weights: np.ndarray
) -> None:
    """Write the forward edges of one ``(L_i, R_j)`` block in one bulk write.

    Edge order matches the paper's indexing: first by the left node
    ``u``, then by the right node ``v`` — position ``u * (1/eps) + v``
    of the weight vector.
    """
    graph.add_biclique(*_block_nodes(params, block), weights.tolist())


@lru_cache(maxsize=8)
def _layout(params: ForEachParams) -> BicliqueLayout:
    """The CSR layout of every graph encoded under ``params``: the
    skeleton, then each block written as :meth:`ForEachEncoder.encode`'s
    dict graph writes it (weights here are placeholders)."""
    graph = _skeleton_graph(params)
    blocks = _blocks(params)
    placeholder = np.zeros(params.inv_eps * params.inv_eps)
    for block in blocks:
        _write_block(graph, params, block, placeholder)
    return BicliqueLayout.of(graph, [_block_nodes(params, b) for b in blocks])


class ForEachEncoder:
    """Encode sign strings into balanced digraphs per Theorem 1.1."""

    def __init__(self, params: ForEachParams, c1: float = DEFAULT_C1):
        if c1 <= 0:
            raise ParameterError("c1 must be positive")
        self.params = params
        self.c1 = c1
        self._matrix = Lemma32Matrix(params.inv_eps)
        if self._matrix.num_rows != params.bits_per_block:
            raise ParameterError(
                "internal inconsistency: Lemma 3.2 matrix has "
                f"{self._matrix.num_rows} rows, expected {params.bits_per_block}"
            )
        # Built once; every skeleton() call and dict build gets a copy.
        # Kept as a copy itself, so those copies clone its predecessor
        # dicts instead of rebuilding them (see DiGraph.copy).
        self._skeleton = _skeleton_graph(params).copy()
        self._blocks = _blocks(params)
        # Shared by every encoder of these parameters, and built here,
        # before a game's pool forks, so its workers inherit it.
        self._layout = _layout(params)

    @property
    def matrix(self) -> Lemma32Matrix:
        """The shared Lemma 3.2 matrix (also used by the decoder)."""
        return self._matrix

    def infinity_cap(self) -> float:
        """The encoding-failure threshold ``c1 ln(1/eps) / eps``."""
        return self.c1 * math.log(self.params.inv_eps) * self.params.inv_eps

    def base_weight(self) -> float:
        """The constant offset ``2 c1 ln(1/eps)`` added to every block."""
        return 2.0 * self.c1 * math.log(self.params.inv_eps)

    def skeleton(self) -> DiGraph:
        """The string-independent part of the graph: backward edges only.

        Bob reconstructs this himself (it depends only on the public
        parameters) and subtracts its contribution from his cut queries.
        Returns a fresh copy the caller may mutate.
        """
        return self._skeleton.copy()

    def encode(self, s: SignString) -> EncodedGraph:
        """Build the graph encoding ``s``.

        ``s`` must be a sign string of length ``params.string_length``
        whose entries are exactly +1 or -1.  Deterministic: the only
        randomness in the game is in ``s`` itself and in the sketching
        algorithm.  The graph holds its frozen snapshot, the block
        weights written into the parameters' layout; its dicts are
        built on first read, by the writes of :meth:`_dict_graph`.
        """
        params = self.params
        s = np.asarray(s)
        if s.shape != (params.string_length,):
            raise ParameterError(
                f"string must have length {params.string_length}, "
                f"got {s.shape}"
            )
        if not np.all((s == 1) | (s == -1)):
            raise ParameterError("string entries must be +-1")
        cap = self.infinity_cap()
        base = self.base_weight()

        # All blocks superpose against the same Lemma 3.2 matrix, so the
        # whole string encodes in one batched kernel dispatch instead of
        # one combine per block.
        codewords = self._matrix.combine_many(
            s.astype(np.int64).reshape(len(self._blocks), params.bits_per_block)
        )
        encoded = np.abs(codewords).max(axis=1) <= cap
        weights = np.where(
            encoded[:, None],
            params.epsilon * codewords.astype(np.float64) + base,
            base,
        )
        failed = {
            block for block, ok in zip(self._blocks, encoded.tolist()) if not ok
        }
        snapshot = self._layout.snapshot(weights)
        return EncodedGraph(
            graph=DiGraph.from_snapshot(
                snapshot, partial(self._dict_graph, snapshot)
            ),
            params=params,
            c1=self.c1,
            failed_blocks=failed,
        )

    def _dict_graph(self, snapshot: CSRGraph) -> DiGraph:
        """The encoded graph as dict writes build it, the order its
        snapshot's layout follows: a skeleton copy, then one bulk write
        per block of the weights ``snapshot`` gives it."""
        graph = self._skeleton.copy()
        for block, weights in zip(
            self._blocks, self._layout.block_weights(snapshot)
        ):
            _write_block(graph, self.params, block, weights)
        return graph
