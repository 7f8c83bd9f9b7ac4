"""Bob's side of the for-all lower bound (Lemma 4.2 / Theorem 1.2).

Bob receives a for-all cut sketch, an index (naming a left node ``l_i``
and a right cluster ``R_j`` of some group pair) and his Gap-Hamming
string ``t``.  The natural query — read off ``w(l_i, T)`` directly —
fails: the cut containing it has value ``Theta(beta/eps^4)``, so a
``(1 +- eps)`` sketch answers with ``Theta(beta/eps^3)`` additive error,
drowning the ``Theta(1/eps)`` signal.

Instead Bob exploits the *for-all* guarantee (the step unavailable to
for-each sketches): he enumerates every half-size subset ``U`` of the
left group, estimates ``w(U, T)`` for each using the fixed-part
subtraction, and takes the subset ``Q`` with the largest estimate
(Lemma 4.4).  Because roughly half the left nodes have
``|N(l) cap T|`` above the median (Lemma 4.3), ``Q`` captures at least a
4/5 fraction of the HIGH-intersection nodes, so membership of ``l_i`` in
``Q`` reveals the promise side:

* ``l_i in Q``  -> ``|N(l_i) cap T|`` large -> ``Delta(s, t)`` small (LOW);
* ``l_i not in Q`` -> ``Delta(s, t)`` large (HIGH).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from typing import FrozenSet, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.comm.gap_hamming import GapCase
from repro.errors import ParameterError
from repro.forall_lb.encoder import ForAllEncoder
from repro.forall_lb.params import ForAllParams, NodeLabel
from repro.graphs.digraph import DiGraph
from repro.sketch.base import CutSketch
from repro.utils.bitstrings import BitString
from repro.utils.rng import RngLike, ensure_rng

#: Above this many half-size subsets the decoder switches from exact
#: enumeration to random sampling (documented substitution in DESIGN.md).
DEFAULT_ENUMERATION_LIMIT = 20_000

#: Subsets evaluated per batched kernel/sketch call inside :meth:`decide`.
SUBSET_BATCH = 512


@dataclass
class ForAllDecision:
    """Bob's answer plus diagnostics."""

    case: GapCase
    chosen_subset: FrozenSet[NodeLabel]
    subsets_examined: int
    queries_made: int


class ForAllDecoder:
    """Decide the Gap-Hamming promise from a for-all cut sketch."""

    def __init__(
        self,
        params: ForAllParams,
        enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
        rng: RngLike = None,
    ):
        if enumeration_limit < 1:
            raise ParameterError("enumeration_limit must be positive")
        self.params = params
        self.enumeration_limit = enumeration_limit
        self._rng = ensure_rng(rng)
        self._skeleton = ForAllEncoder(params).skeleton()
        # Frozen once: the fixed skeleton offsets for whole batches of
        # candidate subsets are evaluated through this snapshot.
        self._skeleton_csr = self._skeleton.freeze()

    def _query_nodes(self, pair: int, cluster: int, t: BitString) -> Set[NodeLabel]:
        """The node set ``T``: positions of 1 in ``t`` inside ``R_cluster``."""
        t = np.asarray(t)
        if t.shape != (self.params.string_length,):
            raise ParameterError(
                f"query string must have length {self.params.string_length}"
            )
        cluster_nodes = self.params.cluster_nodes(pair + 1, cluster)
        return {node for node, bit in zip(cluster_nodes, t) if bit}

    def _half_subsets(self, pair: int) -> Tuple[Iterator[FrozenSet[NodeLabel]], int]:
        """All (or sampled) half-size subsets of the left group ``V_pair``."""
        group = self.params.group_nodes(pair)
        half = len(group) // 2
        total = comb(len(group), half)
        if total <= self.enumeration_limit:
            return (frozenset(c) for c in combinations(group, half)), total
        # Sampling fallback: still a valid instantiation of Lemma 4.4's
        # argmax as long as the sampled family is large; documented in
        # DESIGN.md as a scale substitution.
        def sampled() -> Iterator[FrozenSet[NodeLabel]]:
            for _ in range(self.enumeration_limit):
                picks = self._rng.choice(len(group), size=half, replace=False)
                yield frozenset(group[i] for i in picks)

        return sampled(), self.enumeration_limit

    def _fixed_parts(
        self, pair: int, t_nodes: Set[NodeLabel]
    ) -> Tuple[Set[NodeLabel], List[NodeLabel]]:
        """The subset-independent parts of every cut side of one decision:
        ``V_{p+1} \\ T`` and the nodes of ``V_{p+2}, V_{p+3}, ...``."""
        params = self.params
        rest = set(params.group_nodes(pair + 1)) - t_nodes
        later = [
            node
            for group in range(pair + 2, params.num_groups)
            for node in params.group_nodes(group)
        ]
        return rest, later

    @staticmethod
    def _join(
        subset: FrozenSet[NodeLabel],
        rest: Set[NodeLabel],
        later: List[NodeLabel],
    ) -> Set[NodeLabel]:
        # Always subset, then rest, then later: sketches that scan the
        # side's own iteration order sum in the same order every time.
        side: Set[NodeLabel] = set(subset)
        side.update(rest)
        side.update(later)
        return side

    def cut_side(
        self, pair: int, subset: FrozenSet[NodeLabel], t_nodes: Set[NodeLabel]
    ) -> Set[NodeLabel]:
        """``S = U u (V_{p+1} \\ T) u V_{p+2} u ...`` (proof of Thm 1.2)."""
        return self._join(subset, *self._fixed_parts(pair, t_nodes))

    def estimate_block_weight(
        self,
        sketch: CutSketch,
        pair: int,
        subset: FrozenSet[NodeLabel],
        t_nodes: Set[NodeLabel],
    ) -> float:
        """Estimate the string-dependent part of ``w(U, T)``.

        Subtracting the skeleton cut (base forward weight 1 plus all
        backward edges) leaves ``sum_{l in U} |N(l) cap T|`` up to sketch
        error.
        """
        side = self.cut_side(pair, subset, t_nodes)
        fixed = self._skeleton_csr.cut_weight(side)
        return sketch.query(side) - fixed

    def decide(
        self, sketch: CutSketch, string_index: int, t: BitString
    ) -> ForAllDecision:
        """Answer HIGH/LOW for the planted pair ``(s_q, t)``."""
        params = self.params
        pair, left_index, cluster = params.locate_string(string_index)
        t_nodes = self._query_nodes(pair, cluster, t)
        subsets, _total = self._half_subsets(pair)
        rest, later = self._fixed_parts(pair, t_nodes)

        best_value = -np.inf
        best_subset: Optional[FrozenSet[NodeLabel]] = None
        examined = 0
        csr = self._skeleton_csr
        query_many = getattr(sketch, "query_many", None)
        while True:
            chunk = list(islice(subsets, SUBSET_BATCH))
            if not chunk:
                break
            # One skeleton-kernel call for the fixed offsets and one
            # batched sketch probe per chunk; the sequential scan below
            # keeps the first-strictly-greater argmax of the loop form.
            sides = [
                frozenset(self._join(subset, rest, later)) for subset in chunk
            ]
            fixed = csr.cut_weights(csr.membership_matrix(sides))
            if query_many is not None:
                observed = query_many(sides)
            else:  # duck-typed sketches that only implement query()
                observed = [sketch.query(side) for side in sides]
            examined += len(chunk)
            for subset, answer, offset in zip(chunk, observed, fixed):
                value = answer - float(offset)
                if value > best_value:
                    best_value = value
                    best_subset = subset
        if best_subset is None:
            raise ParameterError("no subsets enumerated")
        target = (pair, left_index)
        case = GapCase.LOW if target in best_subset else GapCase.HIGH
        return ForAllDecision(
            case=case,
            chosen_subset=best_subset,
            subsets_examined=examined,
            queries_made=examined,
        )
