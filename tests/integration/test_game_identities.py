"""Paper identities on the game round paths, at several parameter points.

* Thm 1.1 encoder: ``encode(s)`` is, in full adjacency order, the graph
  a freshly built skeleton plus one ``add_edge`` per forward edge gives
  (the construction the cached-skeleton path replaced, kept here as the
  oracle), failed blocks included;
* Lemma 3.2/3.3: for every bit outside a failed block, the exact
  sketch's ``estimate_inner_product`` is ``<w, M_t> = s_q / eps``;
* snapshot first: both encoders' graphs hold the oracle's frozen
  snapshot before anything reads their dicts, build the oracle's dicts
  on first read, rebuild the snapshot after a mutation, pickle and
  deep-copy as the oracle, and a game round never builds the dicts;
* Lemma 4.4: ``ForAllDecoder.decide`` picks the first maximiser of
  ``estimate_block_weight`` over the half-size subsets of the left group,
  and returns what the label-set loop it replaced
  (:mod:`tests.forall_lb.decide_oracle`) returns, for row-path,
  ``query_many``-only and ``query``-only sketches alike.
"""

import copy
import pickle
from itertools import combinations
from math import comb

import numpy as np
import pytest

from repro.comm.gap_hamming import sample_gap_hamming_instance
from repro.forall_lb.decoder import ForAllDecoder
from repro.forall_lb.encoder import ForAllEncoder
from repro.forall_lb.game import run_gap_hamming_game
from repro.forall_lb.params import ForAllParams
from repro.foreach_lb.decoder import ForEachDecoder
from repro.foreach_lb.encoder import DEFAULT_C1, ForEachEncoder
from repro.foreach_lb.game import run_index_game
from repro.foreach_lb.params import ForEachParams
from repro.graphs.csr import CSRGraph
from repro.graphs.digraph import DiGraph
from repro.sketch.exact import ExactCutSketch
from repro.sketch.noisy import NoisyForAllSketch, NoisyForEachSketch
from repro.utils.bitstrings import random_signstring
from tests.forall_lb.decide_oracle import oracle_decide

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


def _forall_oracle_encode(params, strings):
    """The edge-loop skeleton, then one ``add_edge(..., combine="set")``
    per forward edge of each string's row."""
    graph = _forall_skeleton_loop(params)
    for q, s in enumerate(strings):
        pair, left_index, cluster = params.locate_string(q)
        for v, bit in zip(params.cluster_nodes(pair + 1, cluster), s):
            graph.add_edge((pair, left_index), v, 1.0 + float(bit), combine="set")
    return graph


def _foreach_case(point):
    params, c1, seed = point
    encoder = ForEachEncoder(params, c1=c1)
    s = random_signstring(params.string_length, rng=seed)
    return (
        lambda: encoder.encode(s).graph,
        lambda: _oracle_encode(encoder, s)[0],
    )


def _forall_case(params):
    instance = sample_gap_hamming_instance(
        num_strings=params.num_strings, length=params.string_length, rng=7
    )
    encoder = ForAllEncoder(params)
    return (
        lambda: encoder.encode(instance.strings).graph,
        lambda: _forall_oracle_encode(params, instance.strings),
    )


def _forall_skeleton_case(params):
    return (
        lambda: ForAllEncoder(params).skeleton(),
        lambda: _forall_skeleton_loop(params),
    )


SNAPSHOT_CASES = (
    [(_foreach_case, point) for point in FOREACH_POINTS]
    + [(_forall_case, params) for params in FORALL_POINTS]
    + [(_forall_skeleton_case, params) for params in FORALL_POINTS]
)


@pytest.fixture(
    params=SNAPSHOT_CASES, ids=lambda case: f"{case[0].__name__[1:]}-{case[1]}"
)
def snapshot_case(request):
    """``(encode, oracle)``: each call builds a fresh graph."""
    make, point = request.param
    return make(point)


def _dicts_built(graph):
    # A graph made by DiGraph.from_snapshot has no _succ until it builds
    # its dicts.
    return "_succ" in vars(graph)


def _snapshot_fields(csr):
    return (
        csr.labels,
        csr.tails.tolist(),
        csr.heads.tolist(),
        csr.weights.tobytes(),
        csr.total_weight(),
    )


def _oracle_snapshot(oracle):
    return _snapshot_fields(CSRGraph.from_digraph(oracle))


class TestSnapshotFirstGraphs:
    def test_freeze_before_any_dict_read_is_the_oracle_snapshot(
        self, snapshot_case
    ):
        encode, oracle = snapshot_case
        graph = encode()
        assert _snapshot_fields(graph.freeze()) == _oracle_snapshot(oracle())
        assert graph.num_edges == oracle().num_edges
        assert not _dicts_built(graph)

    def test_first_dict_read_builds_the_oracle_dicts(self, snapshot_case):
        encode, oracle = snapshot_case
        frozen_first = encode()
        snapshot = frozen_first.freeze()
        assert _layout(frozen_first) == _layout(oracle())
        assert frozen_first.freeze() is snapshot
        # Built, it is a plain DiGraph: the attribute-miss hook stays off
        # DiGraph, where it would slow every attribute read of every graph.
        assert type(frozen_first) is DiGraph
        assert not hasattr(DiGraph, "__getattr__")
        read_first = encode()
        assert _layout(read_first) == _layout(oracle())
        assert _snapshot_fields(read_first.freeze()) == _oracle_snapshot(oracle())
        assert read_first.total_weight() == oracle().total_weight()

    @pytest.mark.parametrize("freeze_first", [True, False])
    def test_mutation_makes_freeze_rebuild(self, snapshot_case, freeze_first):
        encode, oracle = snapshot_case
        graph, expected = encode(), oracle()
        snapshot = graph.freeze() if freeze_first else None
        u, v, w = next(expected.edges())
        for g in (graph, expected):
            g.add_edge(u, v, w + 0.5, combine="set")
        rebuilt = graph.freeze()
        assert rebuilt is not snapshot
        assert _snapshot_fields(rebuilt) == _oracle_snapshot(expected)
        assert _layout(graph) == _layout(expected)

    def test_pickle_and_deepcopy_of_unread_graph_give_oracle(self, snapshot_case):
        encode, oracle = snapshot_case
        for clone in (pickle.loads(pickle.dumps(encode())), copy.deepcopy(encode())):
            assert _layout(clone) == _layout(oracle())
            assert _snapshot_fields(clone.freeze()) == _oracle_snapshot(oracle())


class _DictsUnbuiltSketch(ExactCutSketch):
    """Exact, but raises if the graph it sketches has built its dicts by
    the time it is built, sized or queried."""

    def __init__(self, graph):
        self._source = graph
        self._check()
        super().__init__(graph)

    def _check(self):
        if _dicts_built(self._source):
            raise AssertionError("the round built the encoded graph's dicts")

    def size_bits(self):
        self._check()
        return super().size_bits()

    def query(self, side):
        self._check()
        return super().query(side)

    def query_many(self, sides):
        self._check()
        return super().query_many(sides)

    def query_rows(self, labels, member):
        self._check()
        return super().query_rows(labels, member)


@pytest.mark.parametrize("jobs", [1, 2])
def test_game_rounds_never_build_the_dicts(jobs):
    """Every sketch of a round reads the snapshot; nothing on the game path
    may build the encoded graph's dicts (a worker's raise fails the map)."""
    index = run_index_game(
        FOREACH_POINTS[1][0],
        lambda graph, _rng: _DictsUnbuiltSketch(graph),
        rounds=3,
        rng=4,
        jobs=jobs,
    )
    assert index.success_rate == 1.0
    gap = run_gap_hamming_game(
        FORALL_POINTS[0],
        lambda graph, _rng: _DictsUnbuiltSketch(graph),
        rounds=3,
        rng=4,
        jobs=jobs,
    )
    assert gap.summary.trials == 3


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


def _forall_skeleton_loop(params):
    """``ForAllEncoder.skeleton`` as the interleaved edge loop it replaced."""
    graph = DiGraph()
    for pair in range(params.num_groups - 1):
        for u in params.group_nodes(pair):
            for v in params.group_nodes(pair + 1):
                graph.add_edge(u, v, 1.0)
                graph.add_edge(v, u, params.backward_weight)
    return graph


@pytest.mark.parametrize("params", FORALL_POINTS, ids=str)
def test_forall_skeleton_matches_edge_loop(params):
    assert _layout(ForAllEncoder(params).skeleton()) == _layout(
        _forall_skeleton_loop(params)
    )


class _QueryOnlySketch:
    """A duck-typed sketch with nothing but ``query()``."""

    def __init__(self, graph):
        self._graph = graph.copy()

    def query(self, side):
        return self._graph.cut_weight(side)


class _DictPathSketch(_QueryOnlySketch):
    """``query_many`` on the dict path, like ``SpectralSketch``: the float
    sum follows each side's own iteration order."""

    def query_many(self, sides):
        return [self.query(side) for side in sides]


class _NaNSketch(ExactCutSketch):
    """Exact, except NaN for every side holding ``node``."""

    def __init__(self, graph, node):
        super().__init__(graph)
        self._node = node

    def query(self, side):
        return np.nan if self._node in side else super().query(side)

    def query_many(self, sides):
        values = super().query_many(sides)
        return [np.nan if self._node in side else v for side, v in zip(sides, values)]

    def query_rows(self, labels, member):
        values = np.array(super().query_rows(labels, member))
        values[member[:, list(labels).index(self._node)]] = np.nan
        return values


def _sketch(kind, graph, pair):
    if kind == "exact":
        return ExactCutSketch(graph)
    if kind == "noisy":
        return NoisyForAllSketch(graph, epsilon=0.1, seed=3)
    if kind == "query_only":
        return _QueryOnlySketch(graph)
    if kind == "dict_path":
        # Non-dyadic weights: sums round differently in different orders.
        return _DictPathSketch(graph.scale_weights(1.0 / 3.0))
    return _NaNSketch(graph, (pair, 0))


@pytest.mark.parametrize("params", FORALL_POINTS, ids=str)
@pytest.mark.parametrize(
    "sketch_kind", ["exact", "noisy", "query_only", "dict_path", "nan"]
)
def test_decide_picks_first_argmax(params, sketch_kind):
    """Lemma 4.4's argmax: the batched decision equals the label-set loop
    it replaced and the subset-by-subset first maximum, ties (exact
    sketch) and all, in every group pair; NaN answers never win."""
    instance = sample_gap_hamming_instance(
        num_strings=params.num_strings, length=params.string_length, rng=7
    )
    graph = ForAllEncoder(params).encode(instance.strings).graph
    group_size = params.group_size
    for string_index in sorted({0, instance.index, params.num_strings - 1}):
        pair = params.locate_string(string_index)[0]
        sketch = _sketch(sketch_kind, graph, pair)
        decoder = ForAllDecoder(params, rng=0)
        decision = decoder.decide(sketch, string_index, instance.query)
        assert decision.subsets_examined == comb(group_size, group_size // 2)
        oracle = oracle_decide(
            ForAllDecoder(params, rng=0), sketch, string_index, instance.query
        )
        assert decision == oracle
        assert list(decision.chosen_subset) == list(oracle.chosen_subset)
        if sketch_kind == "nan":
            assert (pair, 0) not in decision.chosen_subset
        if sketch_kind != "dict_path":
            assert decision.chosen_subset == _first_argmax(
                decoder, sketch, params, string_index, instance.query
            )


@pytest.mark.parametrize("params", FORALL_POINTS[:2], ids=str)
def test_dict_path_sides_keep_label_set_order(params):
    """A dict-path sketch sums a side in the side's own iteration order.
    With non-dyadic weights that order breaks some ties (it does on
    several of these instances), so ``decide`` must hand such sketches
    the label sets the loop built, not sets rebuilt in column order."""
    for seed in range(24):
        instance = sample_gap_hamming_instance(
            num_strings=params.num_strings, length=params.string_length, rng=seed
        )
        graph = ForAllEncoder(params).encode(instance.strings).graph
        sketch = _DictPathSketch(graph.scale_weights(1.0 / 3.0))
        for string_index in sorted({0, instance.index, params.num_strings - 1}):
            decision = ForAllDecoder(params).decide(
                sketch, string_index, instance.query
            )
            assert decision == oracle_decide(
                ForAllDecoder(params), sketch, string_index, instance.query
            )


@pytest.mark.parametrize(
    "params, limit",
    [
        (ForAllParams(inv_eps_sq=4, beta=1, num_groups=2), 5),
        (ForAllParams(inv_eps_sq=12, beta=1, num_groups=2), 700),
        (ForAllParams(inv_eps_sq=4, beta=2, num_groups=3), 60),
    ],
    ids=str,
)
def test_sampled_fallback_interleaves_picks_and_noise(params, limit):
    """Above the enumeration limit the decoder samples its candidates from
    the generator the game also hands the sketch; picks and for-each
    noise draws must interleave chunk by chunk exactly as in the loop."""
    instance = sample_gap_hamming_instance(
        num_strings=params.num_strings, length=params.string_length, rng=11
    )
    graph = ForAllEncoder(params).encode(instance.strings).graph

    def play(decide):
        rng = np.random.default_rng(5)
        sketch = NoisyForEachSketch(graph, epsilon=0.2, rng=rng)
        decoder = ForAllDecoder(params, enumeration_limit=limit, rng=rng)
        decision = decide(decoder, sketch, instance.index, instance.query)
        return decision, list(decision.chosen_subset), rng.random()

    decision, order, next_draw = play(
        lambda decoder, *args: decoder.decide(*args)
    )
    assert decision.subsets_examined == limit
    assert (decision, order, next_draw) == play(oracle_decide)
