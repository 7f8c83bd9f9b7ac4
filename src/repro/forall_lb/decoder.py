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
from functools import lru_cache
from itertools import chain, combinations
from math import comb
from typing import FrozenSet, List, Optional, Set, Tuple

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


@lru_cache(maxsize=8)
def half_subset_table(
    group_size: int, enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT
) -> Optional[np.ndarray]:
    """The decoder's candidate subsets of a ``group_size`` group, or ``None``.

    One row of indices per half-size subset, in
    ``combinations(range(group_size), group_size // 2)`` order; ``None``
    when there are more than ``enumeration_limit`` of them (the decoder
    then samples).  Cached and read-only, in the smallest unsigned dtype
    that holds an index: :func:`run_gap_hamming_game` builds it before
    its rounds run, so a worker forked for them inherits it.
    """
    half = group_size // 2
    total = comb(group_size, half)
    if total > enumeration_limit:
        return None
    table = np.fromiter(
        chain.from_iterable(combinations(range(group_size), half)),
        dtype=np.min_scalar_type(group_size - 1),
        count=total * half,
    ).reshape(total, half)
    table.flags.writeable = False
    return table


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
        # The fixed skeleton offsets for whole batches of candidate
        # subsets are evaluated through this snapshot (the skeleton's
        # dicts are never built).
        self._skeleton_csr = ForAllEncoder(params).skeleton().freeze()

    def _query_nodes(self, pair: int, cluster: int, t: BitString) -> Set[NodeLabel]:
        """The node set ``T``: positions of 1 in ``t`` inside ``R_cluster``."""
        t = np.asarray(t)
        if t.shape != (self.params.string_length,):
            raise ParameterError(
                f"query string must have length {self.params.string_length}"
            )
        if not np.all((t == 0) | (t == 1)):
            raise ParameterError("query string entries must be 0/1")
        cluster_nodes = self.params.cluster_nodes(pair + 1, cluster)
        return {node for node, bit in zip(cluster_nodes, t) if bit}

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
        """Answer HIGH/LOW for the planted pair ``(s_q, t)`` (Lemma 4.4).

        Takes the argmax of ``sketch(S_U) - skeleton(S_U)`` over the
        half-size subsets ``U`` of the left group (``S_U`` is
        :meth:`cut_side`).  Candidates are the rows of
        :func:`half_subset_table`, or, above ``enumeration_limit``, that
        many random picks from the decoder's generator, each chunk's
        drawn right before its queries.  Each chunk of
        :data:`SUBSET_BATCH` candidates is one boolean membership matrix
        in the skeleton snapshot's column order: its ``cut_weights`` are
        the skeleton offsets, and a sketch with the optional row path
        ``query_rows(labels, member)`` (see :class:`CutSketch`) answers
        it as is.  Other sketches
        (``query_many`` or ``query`` only) get label sets built as
        :meth:`cut_side` builds them, in candidate order.  The first
        strictly greatest value wins, so a NaN answer never does.
        ``t`` must be a 0/1 string of length ``1/eps^2``.
        """
        params = self.params
        pair, left_index, cluster = params.locate_string(string_index)
        t_nodes = self._query_nodes(pair, cluster, t)
        group = params.group_nodes(pair)
        half = len(group) // 2
        table = half_subset_table(len(group), self.enumeration_limit)
        count = len(table) if table is not None else self.enumeration_limit
        rest, later = self._fixed_parts(pair, t_nodes)

        csr = self._skeleton_csr
        columns = np.array([csr.index_of(node) for node in group], dtype=np.int64)
        fixed_row = np.zeros(csr.num_nodes, dtype=bool)
        fixed_row[[csr.index_of(node) for node in chain(rest, later)]] = True
        query_rows = getattr(sketch, "query_rows", None)
        query_many = getattr(sketch, "query_many", None)

        best_value = -np.inf
        best_picks: Optional[np.ndarray] = None
        for start in range(0, count, SUBSET_BATCH):
            rows = min(SUBSET_BATCH, count - start)
            if table is not None:
                picks = table[start : start + rows]
            else:
                # Sampling fallback: still a valid instantiation of Lemma
                # 4.4's argmax as long as the sampled family is large;
                # documented in DESIGN.md as a scale substitution.
                picks = np.array(
                    [
                        self._rng.choice(len(group), size=half, replace=False)
                        for _ in range(rows)
                    ]
                )
            member = np.repeat(fixed_row[None, :], rows, axis=0)
            member[np.arange(rows)[:, None], columns[picks]] = True
            fixed = csr.cut_weights(member)
            if query_rows is not None:
                observed = query_rows(csr.labels, member)
            else:
                sides = [
                    frozenset(
                        self._join(
                            frozenset(group[i] for i in row), rest, later
                        )
                    )
                    for row in picks.tolist()
                ]
                if query_many is not None:
                    observed = query_many(sides)
                else:  # duck-typed sketches that only implement query()
                    observed = [sketch.query(side) for side in sides]
            values = np.asarray(observed, dtype=np.float64) - fixed
            # np.argmax would pick a NaN; the loop form's ``>`` never does.
            values[np.isnan(values)] = -np.inf
            winner = int(np.argmax(values))
            if values[winner] > best_value:
                best_value = values[winner]
                best_picks = picks[winner]
        if best_picks is None:
            raise ParameterError("no subsets enumerated")
        best_subset = frozenset(group[i] for i in best_picks.tolist())
        target = (pair, left_index)
        case = GapCase.LOW if target in best_subset else GapCase.HIGH
        return ForAllDecision(
            case=case,
            chosen_subset=best_subset,
            subsets_examined=count,
            queries_made=count,
        )
