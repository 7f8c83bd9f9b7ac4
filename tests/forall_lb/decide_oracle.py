"""The label-set Gap-Hamming decision, kept as ``ForAllDecoder.decide``'s oracle.

``oracle_decide`` is the ``decide`` loop ``repro.forall_lb.decoder`` ran
before candidates became membership rows, unchanged but for taking the
decoder as an argument; ``_half_subsets`` is the candidate generator it
consumed.  Every candidate is a label frozenset built through
``_join``, every chunk is one ``membership_matrix`` + ``cut_weights``
call and one ``query_many`` (or per-side ``query``), and the argmax is
the sequential first-strictly-greater scan.  ``decide`` must return the
same decision for every sketch and leave the decoder's generator in the
same state.
"""

from __future__ import annotations

from itertools import combinations, islice
from math import comb
from typing import FrozenSet, Iterator, Optional, Tuple

import numpy as np

from repro.comm.gap_hamming import GapCase
from repro.errors import ParameterError
from repro.forall_lb.decoder import SUBSET_BATCH, ForAllDecision
from repro.forall_lb.params import NodeLabel


def _half_subsets(
    decoder, pair: int
) -> Tuple[Iterator[FrozenSet[NodeLabel]], int]:
    """All (or sampled) half-size subsets of the left group ``V_pair``."""
    group = decoder.params.group_nodes(pair)
    half = len(group) // 2
    total = comb(len(group), half)
    if total <= decoder.enumeration_limit:
        return (frozenset(c) for c in combinations(group, half)), total

    def sampled() -> Iterator[FrozenSet[NodeLabel]]:
        for _ in range(decoder.enumeration_limit):
            picks = decoder._rng.choice(len(group), size=half, replace=False)
            yield frozenset(group[i] for i in picks)

    return sampled(), decoder.enumeration_limit


def oracle_decide(decoder, sketch, string_index: int, t) -> ForAllDecision:
    """Answer HIGH/LOW for the planted pair ``(s_q, t)``."""
    params = decoder.params
    pair, left_index, cluster = params.locate_string(string_index)
    t_nodes = decoder._query_nodes(pair, cluster, t)
    subsets, _total = _half_subsets(decoder, pair)
    rest, later = decoder._fixed_parts(pair, t_nodes)

    best_value = -np.inf
    best_subset: Optional[FrozenSet[NodeLabel]] = None
    examined = 0
    csr = decoder._skeleton_csr
    query_many = getattr(sketch, "query_many", None)
    while True:
        chunk = list(islice(subsets, SUBSET_BATCH))
        if not chunk:
            break
        sides = [
            frozenset(decoder._join(subset, rest, later)) for subset in chunk
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
