"""Bob's side of the for-each lower bound (Lemma 3.3 / Theorem 1.1).

To recover bit ``q`` (living in block ``(L_i, R_j)`` of group pair
``(V_p, V_{p+1})`` at Lemma 3.2 row ``t``), Bob:

1. factors ``M_t = h_A (x) h_B`` and forms
   ``A = {u in L_i : h_A(u) = +1}``, ``B = {v in R_j : h_B(v) = +1}``,
   with complements ``A_bar``, ``B_bar`` inside the clusters;
2. for each of the four pairs ``(A', B')`` queries the sketch at
   ``S = A' u (V_{p+1} \\ B') u V_{p+2} u ... u V_{ell-1}``, whose only
   string-dependent crossing edges are the forward edges ``A' -> B'``;
3. subtracts the string-independent backward contribution (computed on
   the public skeleton graph) to estimate ``w(A', B')``;
4. combines ``w(A,B) - w(A_bar,B) - w(A,B_bar) + w(A_bar,B_bar)``,
   whose exact value is ``<w, M_t> = z_t / eps``, and outputs the sign.

Each sketch query can be boosted by querying ``boost`` times and taking
the median (the paper's footnote 2) — meaningful only against for-each
sketches, whose failures are independent across queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.foreach_lb.encoder import ForEachEncoder
from repro.foreach_lb.params import ForEachParams, NodeLabel
from repro.graphs.digraph import DiGraph
from repro.sketch.base import CutSketch
from repro.utils.stats import median_of_trials


@dataclass(frozen=True)
class CutQueryPlan:
    """One planned cut query: the side ``S`` and its known offset.

    ``estimate = sketch.query(side) - fixed_backward`` approximates the
    forward block weight ``w(A', B')``; ``sign`` is the coefficient of
    this term in the ``<w, M_t>`` combination.
    """

    side: FrozenSet[NodeLabel]
    fixed_backward: float
    sign: int


class ForEachDecoder:
    """Recover bits of Alice's string from a for-each cut sketch."""

    def __init__(self, params: ForEachParams):
        self.params = params
        # The decoder owns its own encoder instance purely to share the
        # Lemma 3.2 matrix and the public skeleton; it never sees s.
        self._encoder = ForEachEncoder(params)
        # Frozen once: every bit's four fixed-backward offsets are
        # evaluated through this snapshot in a single batched kernel call.
        self._skeleton_csr = self._encoder.skeleton().freeze()

    def query_plans(self, q: int) -> List[CutQueryPlan]:
        """The four cut queries recovering bit ``q`` (Figure 1 layout)."""
        params = self.params
        pair, cluster_i, cluster_j, t = params.locate_bit(q)
        row = self._encoder.matrix.row(t)
        left_cluster = params.cluster_nodes(pair, cluster_i)
        right_cluster = params.cluster_nodes(pair + 1, cluster_j)

        side_a = {left_cluster[i] for i in row.side_a}
        side_a_bar = set(left_cluster) - side_a
        side_b = {right_cluster[i] for i in row.side_b}
        side_b_bar = set(right_cluster) - side_b

        quadrants = (
            (side_a, side_b, +1),
            (side_a_bar, side_b, -1),
            (side_a, side_b_bar, -1),
            (side_a_bar, side_b_bar, +1),
        )
        sides = [
            frozenset(self._cut_side(pair, a_part, b_part))
            for a_part, b_part, _ in quadrants
        ]
        csr = self._skeleton_csr
        fixed = csr.cut_weights(csr.membership_matrix(sides))
        return [
            CutQueryPlan(side=side, fixed_backward=float(offset), sign=sign)
            for side, offset, (_, _, sign) in zip(sides, fixed, quadrants)
        ]

    def _cut_side(self, pair: int, a_part: set, b_part: set) -> set:
        """``S = A' u (V_{pair+1} \\ B') u V_{pair+2} u ... `` ."""
        params = self.params
        side = set(a_part)
        side.update(set(params.group_nodes(pair + 1)) - set(b_part))
        for later in range(pair + 2, params.num_groups):
            side.update(params.group_nodes(later))
        return side

    def estimate_inner_product(
        self, sketch: CutSketch, q: int, boost: int = 1
    ) -> float:
        """Estimate ``<w, M_t>`` for the block containing bit ``q``."""
        if boost < 1:
            raise ParameterError("boost must be at least 1")
        plans = self.query_plans(q)
        # One batched probe covering all four quadrants and all boost
        # trials; order matches the sequential loop so per-query sketch
        # randomness is drawn identically.
        sides = [plan.side for plan in plans for _ in range(boost)]
        query_many = getattr(sketch, "query_many", None)
        if query_many is not None:
            answers = query_many(sides)
        else:  # duck-typed sketches that only implement query()
            answers = [sketch.query(side) for side in sides]
        total = 0.0
        for i, plan in enumerate(plans):
            observed = median_of_trials(answers[i * boost : (i + 1) * boost])
            total += plan.sign * (observed - plan.fixed_backward)
        return total

    def decode_bit(self, sketch: CutSketch, q: int, boost: int = 1) -> int:
        """Recover ``s_q`` in {-1, +1} from the sketch.

        Exact value of the estimated inner product is ``z_t / eps``; the
        decision is its sign (ties broken toward +1).
        """
        estimate = self.estimate_inner_product(sketch, q, boost=boost)
        return 1 if estimate >= 0 else -1

    def decode_all(self, sketch: CutSketch, boost: int = 1) -> np.ndarray:
        """Decode the entire string (used by the bit-yield benchmarks)."""
        out = np.empty(self.params.string_length, dtype=np.int8)
        for q in range(self.params.string_length):
            out[q] = self.decode_bit(sketch, q, boost=boost)
        return out
