"""Property-based equivalence of the CSR kernel layer vs the dict path.

The CSR snapshot (:mod:`repro.graphs.csr`) is a performance layer: every
kernel must agree with the reference dict-of-dicts implementation on the
same graph.  These tests draw random weighted digraphs (including
zero-weight edges and non-contiguous, mixed hashable labels) and check

* ``cut_weights`` / ``cut_weights_both`` vs ``DiGraph.cut_weight``;
* ``weights_between`` vs ``DiGraph.directed_weight_between``;
* CSR integer-indexed Dinic vs the dict-path Dinic kept in
  ``tests/graphs/dict_maxflow.py`` (value equality and min-cut duality);
* degree/weight vectors vs per-node dict sums;
* the UGraph freeze path;
* freeze/total_weight cache invalidation across mutations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.csr import CSRGraph, batched_cut_weights
from repro.graphs.cuts import all_directed_cut_values, enumerate_cut_sides
from repro.graphs.digraph import DiGraph
from repro.graphs.maxflow import max_flow
from repro.graphs.ugraph import UGraph
from tests.graphs.dict_maxflow import max_flow_value as dict_max_flow_value

# Non-contiguous mixed hashable labels: ints with gaps, strings, tuples.
LABEL_POOL = [0, 7, 3, "a", "zz", (1, 2), ("x",), 100, -4, "node-9", 42, (0, 0)]


def _label_strategy(min_nodes=2, max_nodes=8):
    return st.lists(
        st.sampled_from(LABEL_POOL),
        min_size=min_nodes,
        max_size=max_nodes,
        unique=True,
    )


@st.composite
def random_digraphs(draw, min_nodes=2, max_nodes=8):
    """A DiGraph with random weighted edges, some of weight zero."""
    labels = draw(_label_strategy(min_nodes, max_nodes))
    n = len(labels)
    g = DiGraph(nodes=labels)
    max_edges = n * (n - 1)
    num_edges = draw(st.integers(0, min(max_edges, 20)))
    pairs = [(u, v) for u in labels for v in labels if u != v]
    for idx in draw(
        st.lists(st.integers(0, len(pairs) - 1), min_size=num_edges,
                 max_size=num_edges, unique=True)
    ):
        u, v = pairs[idx]
        weight = draw(
            st.one_of(
                st.just(0.0),
                st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
            )
        )
        g.add_edge(u, v, weight)
    return g


@st.composite
def random_ugraphs(draw, min_nodes=2, max_nodes=8):
    labels = draw(_label_strategy(min_nodes, max_nodes))
    g = UGraph(nodes=labels)
    pairs = [
        (u, v) for i, u in enumerate(labels) for v in labels[i + 1:]
    ]
    num_edges = draw(st.integers(0, min(len(pairs), 15)))
    for idx in draw(
        st.lists(st.integers(0, len(pairs) - 1), min_size=num_edges,
                 max_size=num_edges, unique=True)
    ):
        u, v = pairs[idx]
        weight = draw(st.floats(0.0, 10.0, allow_nan=False))
        g.add_edge(u, v, weight)
    return g


def _some_sides(graph):
    """A deterministic sample of proper cut sides of ``graph``."""
    nodes = graph.nodes()
    sides = [frozenset(side) for side in enumerate_cut_sides(nodes)]
    return sides[:64]


class TestDirectedKernels:
    @given(random_digraphs())
    @settings(max_examples=50, deadline=None)
    def test_cut_weights_matches_dict(self, g):
        sides = _some_sides(g)
        csr = g.freeze()
        member = csr.membership_matrix(sides)
        batched = csr.cut_weights(member)
        for side, value in zip(sides, batched):
            assert float(value) == pytest.approx(g.cut_weight(side))

    @given(random_digraphs())
    @settings(max_examples=50, deadline=None)
    def test_cut_weights_both_matches_dict(self, g):
        sides = _some_sides(g)
        csr = g.freeze()
        member = csr.membership_matrix(sides)
        forward, backward = csr.cut_weights_both(member)
        node_set = set(g.nodes())
        for side, fwd, bwd in zip(sides, forward, backward):
            assert float(fwd) == pytest.approx(g.cut_weight(side))
            assert float(bwd) == pytest.approx(
                g.cut_weight(frozenset(node_set - set(side)))
            )

    @given(random_digraphs())
    @settings(max_examples=50, deadline=None)
    def test_weights_between_matches_dict(self, g):
        sides = _some_sides(g)
        csr = g.freeze()
        node_set = set(g.nodes())
        src = csr.membership_matrix(sides)
        dst = csr.membership_matrix(
            [frozenset(node_set - set(side)) for side in sides]
        )
        batched = csr.weights_between(src, dst)
        for side, value in zip(sides, batched):
            other = node_set - set(side)
            assert float(value) == pytest.approx(
                g.directed_weight_between(side, other)
            )

    @given(random_digraphs())
    @settings(max_examples=50, deadline=None)
    def test_single_cut_weight_matches(self, g):
        csr = g.freeze()
        for side in _some_sides(g)[:8]:
            assert csr.cut_weight(side) == pytest.approx(g.cut_weight(side))

    @given(random_digraphs(min_nodes=3))
    @settings(max_examples=50, deadline=None)
    def test_degree_and_weight_vectors(self, g):
        csr = g.freeze()
        out_w = csr.out_weight_vector()
        in_w = csr.in_weight_vector()
        out_d = csr.out_degree_vector()
        in_d = csr.in_degree_vector()
        for i, node in enumerate(csr.labels):
            succ = dict(g.iter_successors(node))
            pred = dict(g.iter_predecessors(node))
            assert float(out_w[i]) == pytest.approx(sum(succ.values()))
            assert float(in_w[i]) == pytest.approx(sum(pred.values()))
            assert int(out_d[i]) == len(succ)
            assert int(in_d[i]) == len(pred)

    @given(random_digraphs())
    @settings(max_examples=30, deadline=None)
    def test_enumeration_engines_agree(self, g):
        dict_vals = [
            (side, g.cut_weight(side)) for side in enumerate_cut_sides(g.nodes())
        ]
        csr_vals = list(all_directed_cut_values(g))
        assert len(dict_vals) == len(csr_vals)
        for (s1, v1), (s2, v2) in zip(dict_vals, csr_vals):
            assert s1 == s2
            assert v1 == pytest.approx(v2)

    @given(random_digraphs())
    @settings(max_examples=30, deadline=None)
    def test_batched_helper(self, g):
        sides = _some_sides(g)
        values = batched_cut_weights(g, sides)
        for side, value in zip(sides, values):
            assert float(value) == pytest.approx(g.cut_weight(side))


class TestMaxFlowEquivalence:
    @given(random_digraphs(min_nodes=2, max_nodes=7), st.data())
    @settings(max_examples=50, deadline=None)
    def test_csr_flow_matches_dict_dinic(self, g, data):
        labels = g.nodes()
        source = data.draw(st.sampled_from(labels))
        sink = data.draw(
            st.sampled_from([v for v in labels if v != source])
        )
        csr_result = max_flow(g, source, sink)
        assert csr_result.value == pytest.approx(dict_max_flow_value(g, source, sink))
        # Min-cut duality: the reported source side is a cut whose dict
        # weight equals the flow value (or the trivial full-vertex set
        # when the sink is unreachable).
        side = csr_result.source_side
        if sink not in side and len(side) < g.num_nodes:
            assert g.cut_weight(side) == pytest.approx(csr_result.value)

    @given(random_digraphs(min_nodes=2, max_nodes=7), st.data())
    @settings(max_examples=30, deadline=None)
    def test_flow_conservation(self, g, data):
        labels = g.nodes()
        source = data.draw(st.sampled_from(labels))
        sink = data.draw(st.sampled_from([v for v in labels if v != source]))
        result = max_flow(g, source, sink)
        net = {v: 0.0 for v in labels}
        for (u, v), f in result.edge_flows.items():
            assert -1e-9 <= f <= g.weight(u, v) + 1e-9
            net[u] += f
            net[v] -= f
        for v in labels:
            if v in (source, sink):
                continue
            assert net[v] == pytest.approx(0.0, abs=1e-9)
        assert net[source] == pytest.approx(result.value, abs=1e-9)


class TestUndirectedKernels:
    @given(random_ugraphs())
    @settings(max_examples=50, deadline=None)
    def test_cut_weights_matches_dict(self, g):
        sides = _some_sides(g)
        csr = g.freeze()
        member = csr.membership_matrix(sides)
        batched = csr.cut_weights(member)
        for side, value in zip(sides, batched):
            assert float(value) == pytest.approx(g.cut_weight(side))

    @given(random_ugraphs())
    @settings(max_examples=30, deadline=None)
    def test_total_weight_cached(self, g):
        assert g.total_weight() == pytest.approx(g.total_weight())


class TestCacheInvalidation:
    def test_freeze_reused_until_mutation(self):
        g = DiGraph(edges=[("a", "b", 1.0), ("b", "c", 2.0)])
        first = g.freeze()
        assert g.freeze() is first
        g.add_edge("c", "a", 3.0)
        second = g.freeze()
        assert second is not first
        assert second.cut_weight({"c"}) == pytest.approx(3.0)

    def test_total_weight_invalidated_by_mutation(self):
        g = DiGraph(edges=[("a", "b", 1.0)])
        assert g.total_weight() == pytest.approx(1.0)
        g.add_edge("b", "a", 2.0)
        assert g.total_weight() == pytest.approx(3.0)
        g.remove_edge("a", "b")
        assert g.total_weight() == pytest.approx(2.0)

    def test_remove_node_invalidates(self):
        g = DiGraph(edges=[("a", "b", 1.0), ("b", "c", 2.0)])
        g.freeze()
        g.remove_node("b")
        csr = g.freeze()
        assert csr.num_nodes == 2
        assert csr.num_edges == 0

    def test_ugraph_freeze_invalidation(self):
        g = UGraph(edges=[("a", "b", 1.0)])
        first = g.freeze()
        g.add_edge("b", "c", 5.0)
        second = g.freeze()
        assert second is not first
        assert second.total_weight() == pytest.approx(12.0)  # both directions

    def test_add_existing_node_keeps_cache(self):
        g = DiGraph(edges=[("a", "b", 1.0)])
        first = g.freeze()
        g.add_node("a")
        assert g.freeze() is first


class TestValidation:
    def test_unknown_label_rejected(self):
        g = DiGraph(edges=[("a", "b", 1.0)])
        csr = g.freeze()
        with pytest.raises(GraphError):
            csr.membership_matrix([{"zz"}])

    def test_improper_side_rejected(self):
        g = DiGraph(edges=[("a", "b", 1.0)])
        csr = g.freeze()
        with pytest.raises(GraphError):
            csr.check_proper(csr.membership_matrix([{"a", "b"}]))
        with pytest.raises(GraphError):
            csr.check_proper(csr.membership_matrix([set()]))

    def test_empty_batch(self):
        g = DiGraph(edges=[("a", "b", 1.0)])
        csr = g.freeze()
        member = np.zeros((0, csr.num_nodes), dtype=bool)
        assert csr.cut_weights(member).shape == (0,)


# ----------------------------------------------------------------------
# Order-exact equivalence of the rewritten plumbing.  The oracles are the
# constructions the fast paths replaced, kept here verbatim: the
# edge-by-edge graph rebuild, the per-arc snapshot loop and the per-node
# membership fill.
# ----------------------------------------------------------------------


def _oracle_digraph_copy(g):
    return DiGraph(g.nodes(), g.edges())


def _oracle_ugraph_copy(g):
    return UGraph(g.nodes(), g.edges())


def _oracle_snapshot_arrays(graph, rows_of, m):
    labels = graph.nodes()
    index = {label: i for i, label in enumerate(labels)}
    tails = np.empty(m, dtype=np.int64)
    heads = np.empty(m, dtype=np.int64)
    weights = np.empty(m, dtype=np.float64)
    pos = 0
    for u in labels:
        ui = index[u]
        for v, w in rows_of(u):
            tails[pos] = ui
            heads[pos] = index[v]
            weights[pos] = w
            pos += 1
    return labels, tails, heads, weights


def _oracle_membership(csr, sides):
    member = np.zeros((len(sides), csr.num_nodes), dtype=bool)
    index = {label: i for i, label in enumerate(csr.labels)}
    for k, side in enumerate(sides):
        row = member[k]
        for node in side:
            try:
                row[index[node]] = True
            except KeyError:
                raise GraphError(
                    f"cut side contains unknown nodes: [{node!r}]"
                ) from None
    return member


_WEIGHTS = st.one_of(
    st.just(0.0),
    st.integers(0, 5),
    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
)


#: One mutation: (kind, tail pick, head pick, weight, combine mode).  The
#: picks index into the label list (edges, nodes) at apply time.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add"] * 4 + ["remove_edge", "remove_node"]),
        st.integers(0, 99),
        st.integers(0, 99),
        _WEIGHTS,
        st.sampled_from(["add", "set"]),
    ),
    min_size=8,
    max_size=48,
)


def _grow(g, labels, ops, remove_node):
    """Apply ``ops`` to ``g`` through its public mutators only."""
    for kind, i, j, weight, combine in ops:
        u, v = labels[i % len(labels)], labels[j % len(labels)]
        if kind == "add" and u != v:
            g.add_edge(u, v, weight, combine=combine)
        elif kind == "remove_edge" and g.num_edges:
            edges = list(g.edges())
            a, b, _ = edges[i % len(edges)]
            g.remove_edge(a, b)
        elif kind == "remove_node" and remove_node and g.num_nodes:
            g.remove_node(g.nodes()[i % g.num_nodes])
    return g


@st.composite
def mutated_digraphs(draw):
    """A DiGraph grown and pruned through its public mutators: isolated
    nodes, ``add_edge`` with the add and set combine modes,
    ``remove_edge`` and ``remove_node`` — so predecessor order often
    differs from the tails' node order."""
    labels = draw(_label_strategy(2, 10))
    isolated = draw(st.lists(st.sampled_from(labels), unique=True))
    return _grow(DiGraph(nodes=isolated), labels, draw(_OPS), remove_node=True)


@st.composite
def mutated_ugraphs(draw):
    """A UGraph grown and pruned through ``add_edge`` (add and set) and
    ``remove_edge``, with isolated nodes (UGraph has no ``remove_node``)."""
    labels = draw(_label_strategy(2, 10))
    isolated = draw(st.lists(st.sampled_from(labels), unique=True))
    return _grow(UGraph(nodes=isolated), labels, draw(_OPS), remove_node=False)


def _pick_pair(g, data):
    """Two distinct labels, each a node of ``g`` or a new one."""
    labels = g.nodes() + ["fresh", ("new",)]
    u = data.draw(st.sampled_from(labels))
    v = data.draw(st.sampled_from([x for x in labels if x != u]))
    return u, v


def _add_biclique(g, data):
    labels = g.nodes() + ["fresh", ("new",)]
    right = data.draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
    left = data.draw(
        st.lists(
            st.sampled_from([x for x in labels if x not in right] or ["spare"]),
            min_size=1,
            unique=True,
        )
    )
    left = [u for u in left if not any(g.has_edge(u, v) for v in right)]
    size = len(left) * len(right)
    g.add_biclique(
        left, right, data.draw(st.lists(_WEIGHTS, min_size=size, max_size=size))
    )


def _remove_edge(g, data):
    if g.num_edges:
        g.remove_edge(*data.draw(st.sampled_from(list(g.edges())))[:2])


def _remove_node(g, data):
    if g.num_nodes:
        g.remove_node(data.draw(st.sampled_from(g.nodes())))


#: One drawn call of each ``DiGraph`` mutator, applied to ``g``.
_COPY_MUTATORS = {
    "add_node": lambda g, data: g.add_node(data.draw(st.sampled_from(LABEL_POOL))),
    "add_edge_set": lambda g, data: g.add_edge(
        *_pick_pair(g, data), data.draw(_WEIGHTS), combine="set"
    ),
    "add_edge_add": lambda g, data: g.add_edge(
        *_pick_pair(g, data), data.draw(_WEIGHTS), combine="add"
    ),
    "add_biclique": _add_biclique,
    "remove_edge": _remove_edge,
    "remove_node": _remove_node,
}


def _digraph_layout(g):
    nodes = g.nodes()
    return (
        nodes,
        [list(g.iter_successors(u)) for u in nodes],
        [list(g.iter_predecessors(u)) for u in nodes],
        g.num_edges,
    )


def _ugraph_layout(g):
    nodes = g.nodes()
    return nodes, [list(g.iter_neighbors(u)) for u in nodes], g.num_edges


def _snapshot_arrays(csr):
    return (
        list(csr.labels),
        csr.tails.copy(),
        csr.heads.copy(),
        csr.weights.copy(),
    )


def _assert_same_arrays(got, want):
    assert got[0] == list(want[0])
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


class TestCopyOrder:
    @given(mutated_digraphs())
    @settings(max_examples=150, deadline=None)
    def test_digraph_copy_matches_rebuild(self, g):
        assert _digraph_layout(g.copy()) == _digraph_layout(_oracle_digraph_copy(g))

    @given(mutated_digraphs())
    @settings(max_examples=150, deadline=None)
    def test_digraph_copy_of_copy_matches_rebuild(self, g):
        # An unmutated copy clones its predecessor dicts when copied.
        want = _digraph_layout(_oracle_digraph_copy(g))
        assert _digraph_layout(g.copy().copy()) == want
        assert _digraph_layout(g.freeze().to_digraph()) == want

    @pytest.mark.parametrize("mutator", sorted(_COPY_MUTATORS))
    @given(g=mutated_digraphs(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mutated_copy_of_copy_matches_rebuild(self, mutator, g, data):
        # Any mutation ends the clone shortcut: the next copy rebuilds.
        c = g.copy().copy()
        _COPY_MUTATORS[mutator](c, data)
        assert _digraph_layout(c.copy()) == _digraph_layout(_oracle_digraph_copy(c))

    @given(mutated_ugraphs())
    @settings(max_examples=150, deadline=None)
    def test_ugraph_copy_matches_rebuild(self, g):
        assert _ugraph_layout(g.copy()) == _ugraph_layout(_oracle_ugraph_copy(g))

    def test_digraph_copy_rebuilds_predecessor_order(self):
        # pred["c"] holds "b" before "a" here, but the rebuild (and so the
        # copy) lists tails in node order: "a" before "b".
        g = DiGraph(nodes=["a", "b", "c"])
        g.add_edge("b", "c", 1.0)
        g.add_edge("a", "c", 2.0)
        assert list(g.iter_predecessors("c")) == [("b", 1.0), ("a", 2.0)]
        assert list(g.copy().iter_predecessors("c")) == [("a", 2.0), ("b", 1.0)]

    @given(mutated_digraphs())
    @settings(max_examples=30, deadline=None)
    def test_mutating_digraph_copy_leaves_source(self, g):
        before = _digraph_layout(g)
        snapshot = g.freeze()
        arrays = _snapshot_arrays(snapshot)
        c = g.copy()
        c.add_node("fresh")
        for u in list(c.nodes())[:2]:
            if u != "fresh":
                c.add_edge(u, "fresh", 1.0)
                c.add_edge("fresh", u, 2.0)
        for u, v, _ in list(c.edges())[:3]:
            if c.has_edge(u, v) and "fresh" not in (u, v):
                c.add_edge(u, v, 0.5, combine="add")
        if g.num_nodes:
            c.remove_node(g.nodes()[0])
        assert _digraph_layout(g) == before
        assert g.freeze() is snapshot
        _assert_same_arrays(_snapshot_arrays(snapshot), arrays)

    @given(mutated_ugraphs())
    @settings(max_examples=30, deadline=None)
    def test_mutating_ugraph_copy_leaves_source(self, g):
        before = _ugraph_layout(g)
        snapshot = g.freeze()
        arrays = _snapshot_arrays(snapshot)
        c = g.copy()
        for u in list(c.nodes())[:2]:
            c.add_edge(u, "fresh", 1.0)
        for u, v, _ in list(c.edges())[:3]:
            if "fresh" not in (u, v):
                c.add_edge(u, v, 0.5, combine="add")
        if g.num_edges:
            u, v, _ = next(iter(g.edges()))
            c.remove_edge(u, v)
        assert _ugraph_layout(g) == before
        assert g.freeze() is snapshot
        _assert_same_arrays(_snapshot_arrays(snapshot), arrays)


class TestSnapshotArrays:
    @given(mutated_digraphs())
    @settings(max_examples=60, deadline=None)
    def test_from_digraph_matches_per_arc_loop(self, g):
        want = _oracle_snapshot_arrays(g, g.iter_successors, g.num_edges)
        _assert_same_arrays(_snapshot_arrays(CSRGraph.from_digraph(g)), want)

    @given(mutated_ugraphs())
    @settings(max_examples=60, deadline=None)
    def test_from_ugraph_matches_per_arc_loop(self, g):
        want = _oracle_snapshot_arrays(g, g.iter_neighbors, 2 * g.num_edges)
        _assert_same_arrays(_snapshot_arrays(CSRGraph.from_ugraph(g)), want)


_SIDE_KINDS = (set, frozenset, list)


@st.composite
def graphs_with_sides(draw):
    """A graph, plus a batch of sides over its labels of mixed container
    kinds, with duplicates in the lists and possibly empty sides."""
    g = draw(mutated_digraphs())
    labels = g.nodes()
    side = st.lists(st.sampled_from(labels), max_size=12) if labels else st.just([])
    sides = [
        draw(st.sampled_from(_SIDE_KINDS))(draw(side))
        for _ in range(draw(st.integers(0, 6)))
    ]
    return g, sides


class TestMembershipMatrix:
    @given(graphs_with_sides())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_node_loop(self, case):
        g, sides = case
        csr = g.freeze()
        got = csr.membership_matrix(sides)
        want = _oracle_membership(csr, sides)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_empty_batch_and_empty_side(self):
        csr = DiGraph(edges=[("a", "b", 1.0)]).freeze()
        assert csr.membership_matrix([]).shape == (0, 2)
        assert np.array_equal(
            csr.membership_matrix([set(), [], ["b", "b"]]),
            _oracle_membership(csr, [set(), [], ["b", "b"]]),
        )

    @given(graphs_with_sides(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_names_same_first_unknown_node(self, case, data):
        g, sides = case
        known = set(g.nodes())
        strangers = [x for x in LABEL_POOL if x not in known] + ["?1", "?2"]
        lists = [list(side) for side in sides] or [[]]
        for _ in range(data.draw(st.integers(1, 3))):
            k = data.draw(st.integers(0, len(lists) - 1))
            at = data.draw(st.integers(0, len(lists[k])))
            lists[k].insert(at, data.draw(st.sampled_from(strangers)))
        kinds = data.draw(
            st.lists(st.sampled_from(_SIDE_KINDS), min_size=len(lists), max_size=len(lists))
        )
        batch = [kind(side) for kind, side in zip(kinds, lists)]
        csr = g.freeze()
        with pytest.raises(GraphError) as want:
            _oracle_membership(csr, batch)
        with pytest.raises(GraphError) as got:
            csr.membership_matrix(batch)
        assert str(got.value) == str(want.value)
