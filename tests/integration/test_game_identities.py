"""Paper identities on the game round paths, at several parameter points.

* Thm 1.1 encoder: ``encode(s)`` is, in full adjacency order, the graph
  a freshly built skeleton plus one ``add_edge`` per forward edge gives
  (the construction the cached-skeleton path replaced, kept here as the
  oracle), failed blocks included;
* Lemma 3.2/3.3: for every bit outside a failed block, the exact
  sketch's ``estimate_inner_product`` is ``<w, M_t> = s_q / eps``;
* Lemma 4.4: ``ForAllDecoder.decide`` picks the first maximiser of
  ``estimate_block_weight`` over the half-size subsets of the left group.
"""

from itertools import combinations
from math import comb

import numpy as np
import pytest

from repro.comm.gap_hamming import sample_gap_hamming_instance
from repro.forall_lb.decoder import ForAllDecoder
from repro.forall_lb.encoder import ForAllEncoder
from repro.forall_lb.params import ForAllParams
from repro.foreach_lb.decoder import ForEachDecoder
from repro.foreach_lb.encoder import DEFAULT_C1, ForEachEncoder
from repro.foreach_lb.params import ForEachParams
from repro.graphs.digraph import DiGraph
from repro.sketch.exact import ExactCutSketch
from repro.sketch.noisy import NoisyForAllSketch
from repro.utils.bitstrings import random_signstring

#: (params, c1, seed).  The last point's small c1 makes most, not all,
#: blocks exceed the weight cap and fall back to the constant vector.
FOREACH_POINTS = [
    (ForEachParams(inv_eps=4, sqrt_beta=1, num_groups=2), DEFAULT_C1, 1),
    (ForEachParams(inv_eps=4, sqrt_beta=2, num_groups=3), DEFAULT_C1, 2),
    (ForEachParams(inv_eps=8, sqrt_beta=1, num_groups=4), DEFAULT_C1, 3),
    (ForEachParams(inv_eps=4, sqrt_beta=2, num_groups=3), 1.0, 5),
]

FORALL_POINTS = [
    ForAllParams(inv_eps_sq=4, beta=1, num_groups=2),
    ForAllParams(inv_eps_sq=8, beta=1, num_groups=2),
    ForAllParams(inv_eps_sq=4, beta=2, num_groups=3),
]


def _fresh_skeleton(params):
    graph = DiGraph()
    for pair in range(params.num_groups - 1):
        left = params.group_nodes(pair)
        right = params.group_nodes(pair + 1)
        for u in left:
            graph.add_node(u)
        for v in right:
            for u in left:
                graph.add_edge(v, u, params.backward_weight)
    return graph


def _oracle_encode(encoder, s):
    """Fresh skeleton, then ``add_edge(u, v, float(weights[i]))`` block by
    block: ``(graph, failed_blocks)``."""
    params = encoder.params
    graph = _fresh_skeleton(params)
    num_blocks = (params.num_groups - 1) * params.beta
    codewords = encoder.matrix.combine_many(
        np.asarray(s).reshape(num_blocks, params.bits_per_block)
    )
    cap, base = encoder.infinity_cap(), encoder.base_weight()
    failed = set()
    block = 0
    for pair in range(params.num_groups - 1):
        for cluster_i in range(params.sqrt_beta):
            for cluster_j in range(params.sqrt_beta):
                x = codewords[block]
                block += 1
                if np.max(np.abs(x)) <= cap:
                    weights = params.epsilon * x.astype(np.float64) + base
                else:
                    weights = np.full(encoder.matrix.row_length, base)
                    failed.add((pair, cluster_i, cluster_j))
                left = params.cluster_nodes(pair, cluster_i)
                right = params.cluster_nodes(pair + 1, cluster_j)
                for ui, u in enumerate(left):
                    for vi, v in enumerate(right):
                        graph.add_edge(
                            u, v, float(weights[ui * params.inv_eps + vi])
                        )
    return graph, failed


def _layout(g):
    nodes = g.nodes()
    return (
        nodes,
        [list(g.iter_successors(u)) for u in nodes],
        [list(g.iter_predecessors(u)) for u in nodes],
        g.num_edges,
    )


@pytest.fixture(scope="module", params=FOREACH_POINTS, ids=str)
def foreach_point(request):
    params, c1, seed = request.param
    encoder = ForEachEncoder(params, c1=c1)
    s = random_signstring(params.string_length, rng=seed)
    return params, encoder, s, encoder.encode(s)


class TestForEachPaths:
    def test_encode_matches_fresh_build(self, foreach_point):
        params, encoder, s, encoded = foreach_point
        graph, failed = _oracle_encode(encoder, s)
        assert _layout(encoded.graph) == _layout(graph)
        assert encoded.failed_blocks == failed
        # Repeat encodes copy the cached skeleton afresh each time.
        assert _layout(encoder.encode(s).graph) == _layout(graph)
        assert _layout(encoder.skeleton()) == _layout(_fresh_skeleton(params))

    def test_small_c1_point_mixes_failed_and_encoded_blocks(self):
        params, c1, seed = FOREACH_POINTS[-1]
        encoded = ForEachEncoder(params, c1=c1).encode(
            random_signstring(params.string_length, rng=seed)
        )
        assert 0 < len(encoded.failed_blocks) < (params.num_groups - 1) * params.beta

    def test_inner_product_is_s_q_over_eps(self, foreach_point):
        """Lemma 3.2/3.3: ``<w, M_t> = z_t / eps`` on every encoded bit."""
        params, _, s, encoded = foreach_point
        decoder = ForEachDecoder(params)
        sketch = ExactCutSketch(encoded.graph)
        checked = 0
        for q in range(params.string_length):
            if params.locate_bit(q)[:3] in encoded.failed_blocks:
                continue
            value = decoder.estimate_inner_product(sketch, q)
            assert value == pytest.approx(int(s[q]) * params.inv_eps, rel=1e-9)
            checked += 1
        assert checked > 0


def _first_argmax(decoder, sketch, params, string_index, t):
    pair, _, cluster = params.locate_string(string_index)
    t_nodes = {
        node
        for node, bit in zip(params.cluster_nodes(pair + 1, cluster), t)
        if bit
    }
    group = params.group_nodes(pair)
    best, best_value = None, -np.inf
    for members in combinations(group, len(group) // 2):
        subset = frozenset(members)
        value = decoder.estimate_block_weight(sketch, pair, subset, t_nodes)
        if value > best_value:
            best, best_value = subset, value
    return best


@pytest.mark.parametrize("params", FORALL_POINTS, ids=str)
@pytest.mark.parametrize("sketch_kind", ["exact", "noisy"])
def test_decide_picks_first_argmax(params, sketch_kind):
    """Lemma 4.4's argmax: the batched decision equals the subset-by-subset
    first maximum, ties (exact sketch) and all, in every group pair."""
    instance = sample_gap_hamming_instance(
        num_strings=params.num_strings, length=params.string_length, rng=7
    )
    graph = ForAllEncoder(params).encode(instance.strings).graph
    if sketch_kind == "exact":
        sketch = ExactCutSketch(graph)
    else:
        sketch = NoisyForAllSketch(graph, epsilon=0.1, seed=3)
    decoder = ForAllDecoder(params, rng=0)
    group_size = params.group_size
    for string_index in sorted({0, instance.index, params.num_strings - 1}):
        decision = decoder.decide(sketch, string_index, instance.query)
        assert decision.subsets_examined == comb(group_size, group_size // 2)
        assert decision.chosen_subset == _first_argmax(
            decoder, sketch, params, string_index, instance.query
        )
