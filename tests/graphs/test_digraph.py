"""Tests for repro.graphs.digraph."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.digraph import DiGraph


@pytest.fixture
def triangle():
    """Directed triangle a->b->c->a with distinct weights."""
    g = DiGraph()
    g.add_edge("a", "b", 1.0)
    g.add_edge("b", "c", 2.0)
    g.add_edge("c", "a", 3.0)
    return g


class TestConstruction:
    def test_empty(self):
        g = DiGraph()
        assert g.num_nodes == 0
        assert g.num_edges == 0

    def test_add_node_idempotent(self):
        g = DiGraph()
        g.add_node("x")
        g.add_node("x")
        assert g.num_nodes == 1

    def test_edges_add_endpoints(self, triangle):
        assert triangle.num_nodes == 3
        assert triangle.num_edges == 3

    def test_constructor_with_edges(self):
        g = DiGraph(nodes=["z"], edges=[("a", "b", 1.0)])
        assert g.has_node("z")
        assert g.has_edge("a", "b")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            DiGraph().add_edge("a", "a", 1.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphError):
            DiGraph().add_edge("a", "b", -1.0)

    def test_nan_weight_rejected(self):
        g = DiGraph()
        with pytest.raises(GraphError, match="NaN"):
            g.add_edge("a", "b", math.nan)
        g.add_edge("a", "b", 1.0)
        with pytest.raises(GraphError):
            g.add_edge("a", "b", math.nan, combine="add")
        assert g.weight("a", "b") == 1.0

    def test_infinite_weight_accepted(self):
        g = DiGraph(edges=[("a", "b", math.inf)])
        assert g.cut_weight({"a"}) == math.inf

    def test_duplicate_edge_modes(self):
        g = DiGraph()
        g.add_edge("a", "b", 1.0)
        with pytest.raises(GraphError):
            g.add_edge("a", "b", 1.0)
        g.add_edge("a", "b", 2.0, combine="add")
        assert g.weight("a", "b") == 3.0
        g.add_edge("a", "b", 5.0, combine="set")
        assert g.weight("a", "b") == 5.0
        assert g.num_edges == 1

    def test_unknown_combine_mode(self):
        g = DiGraph()
        g.add_edge("a", "b", 1.0)
        with pytest.raises(GraphError):
            g.add_edge("a", "b", 1.0, combine="bogus")

    def test_zero_weight_edge_counts_as_edge(self):
        g = DiGraph()
        g.add_edge("a", "b", 0.0)
        assert g.has_edge("a", "b")
        assert g.num_edges == 1


class TestRemoval:
    def test_remove_edge(self, triangle):
        triangle.remove_edge("a", "b")
        assert not triangle.has_edge("a", "b")
        assert triangle.num_edges == 2

    def test_remove_missing_edge_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.remove_edge("b", "a")

    def test_remove_node_removes_incident_edges(self, triangle):
        triangle.remove_node("b")
        assert triangle.num_nodes == 2
        assert triangle.num_edges == 1  # only c->a survives
        assert triangle.has_edge("c", "a")

    def test_remove_missing_node_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.remove_node("zzz")


class TestInspection:
    def test_directed_asymmetry(self, triangle):
        assert triangle.has_edge("a", "b")
        assert not triangle.has_edge("b", "a")
        assert triangle.weight("b", "a") == 0.0

    def test_weight_unknown_node_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.weight("zzz", "a")

    def test_degrees_and_weights(self, triangle):
        assert triangle.out_degree("a") == 1
        assert triangle.in_degree("a") == 1
        assert triangle.out_weight("a") == 1.0
        assert triangle.in_weight("a") == 3.0

    def test_successors_predecessors_are_copies(self, triangle):
        succ = triangle.successors("a")
        succ["b"] = 99.0
        assert triangle.weight("a", "b") == 1.0
        pred = triangle.predecessors("a")
        pred["c"] = 99.0
        assert triangle.weight("c", "a") == 3.0

    def test_total_weight(self, triangle):
        assert triangle.total_weight() == 6.0

    def test_contains(self, triangle):
        assert "a" in triangle
        assert "q" not in triangle

    def test_repr(self, triangle):
        assert "n=3" in repr(triangle)


class TestCuts:
    def test_cut_weight_directed(self, triangle):
        assert triangle.cut_weight({"a"}) == 1.0
        assert triangle.cut_weight({"b", "c"}) == 3.0

    def test_trivial_cut_rejected(self, triangle):
        with pytest.raises(GraphError):
            triangle.cut_weight(set())
        with pytest.raises(GraphError):
            triangle.cut_weight({"a", "b", "c"})

    def test_cut_with_unknown_node_rejected(self, triangle):
        with pytest.raises(GraphError):
            triangle.cut_weight({"a", "zzz"})

    def test_directed_weight_between(self, triangle):
        assert triangle.directed_weight_between({"a"}, {"b"}) == 1.0
        assert triangle.directed_weight_between({"b"}, {"a"}) == 0.0
        assert triangle.directed_weight_between({"a", "b"}, {"c"}) == 2.0

    def test_edges_between(self, triangle):
        found = triangle.edges_between({"a", "b"}, {"c"})
        assert found == [("b", "c", 2.0)]


class TestDerivedGraphs:
    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.remove_edge("a", "b")
        assert triangle.has_edge("a", "b")

    def test_reverse(self, triangle):
        rev = triangle.reverse()
        assert rev.has_edge("b", "a")
        assert rev.weight("b", "a") == 1.0
        assert not rev.has_edge("a", "b")

    def test_subgraph(self, triangle):
        sub = triangle.subgraph({"a", "b"})
        assert sub.num_nodes == 2
        assert sub.has_edge("a", "b")
        assert sub.num_edges == 1

    def test_scale_weights(self, triangle):
        scaled = triangle.scale_weights(2.0)
        assert scaled.weight("b", "c") == 4.0
        with pytest.raises(GraphError):
            triangle.scale_weights(-1.0)


def _layout(g):
    """Everything the add_edge loop's order decides, as ordered lists."""
    nodes = g.nodes()
    return (
        nodes,
        [list(g.iter_successors(u)) for u in nodes],
        [list(g.iter_predecessors(u)) for u in nodes],
        g.num_edges,
    )


def _biclique_loop(g, left, right, weights):
    for i, u in enumerate(left):
        for j, v in enumerate(right):
            g.add_edge(u, v, weights[i * len(right) + j])


_WEIGHTS = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


@st.composite
def _biclique_cases(draw):
    """A graph with edges on both sides of a biclique that is not yet in it.

    Nodes come from a pool of 10, so left and right mix nodes already in
    the graph (with in- and out-edges of their own) and new endpoints.
    """
    pool = list(range(10))
    left = draw(st.lists(st.sampled_from(pool), unique=True, max_size=4))
    rest = [node for node in pool if node not in left]
    right = draw(st.lists(st.sampled_from(rest), unique=True, max_size=4))
    pairs = [(u, v) for u in pool for v in pool if u != v]
    existing = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20))
    edges = [
        (u, v, draw(_WEIGHTS))
        for u, v in existing
        if not (u in left and v in right)
    ]
    isolated = draw(st.lists(st.sampled_from(pool), unique=True, max_size=3))
    weights = draw(
        st.lists(_WEIGHTS, min_size=len(left) * len(right),
                 max_size=len(left) * len(right))
    )
    return isolated, edges, left, right, weights


class TestAddBiclique:
    @settings(max_examples=200, deadline=None)
    @given(_biclique_cases())
    def test_equals_add_edge_loop(self, case):
        isolated, edges, left, right, weights = case
        bulk = DiGraph(isolated, edges)
        loop = DiGraph(isolated, edges)
        before = bulk.freeze()
        bulk.add_biclique(left, right, weights)
        _biclique_loop(loop, left, right, weights)
        assert _layout(bulk) == _layout(loop)
        after = bulk.freeze()
        if left and right:
            assert after is not before
        fresh = loop.freeze()
        assert after.labels == fresh.labels
        assert after.tails.tolist() == fresh.tails.tolist()
        assert after.heads.tolist() == fresh.heads.tolist()
        assert after.weights.tolist() == fresh.weights.tolist()

    def test_stores_the_given_weight_objects(self):
        weights = [0.1, 0.2, 0.30000000000000004, 1 / 3]
        g = DiGraph()
        g.add_biclique(["a", "b"], ["c", "d"], weights)
        assert [w for _, _, w in g.edges()] == weights
        assert all(a is b for (_, _, a), b in zip(g.edges(), weights))

    @pytest.mark.parametrize(
        "left, right, weights",
        [
            (["a", "x"], ["b", "y"], [1.0] * 4),  # a -> b already exists
            (["x", "y"], ["z", "x"], [1.0] * 4),  # self loop x -> x
            (["x", "y"], ["z", "w"], [1.0, 2.0, -0.5, 1.0]),
            (["x", "y"], ["z", "w"], [1.0, math.nan, 1.0, 1.0]),
            (["x", "y"], ["z", "z"], [1.0] * 4),  # duplicate head
            (["x", "x"], ["z", "w"], [1.0] * 4),  # duplicate tail
            (["x", "y"], ["z", "w"], [1.0] * 3),  # length mismatch
        ],
        ids=[
            "existing", "self_loop", "negative", "nan",
            "duplicate_head", "duplicate_tail", "length",
        ],
    )
    def test_invalid_raises_and_leaves_graph_unchanged(self, left, right, weights):
        g = DiGraph(["q"], [("a", "b", 1.0), ("y", "a", 2.0)])
        layout, snapshot = _layout(g), g.freeze()
        with pytest.raises(GraphError) as raised:
            g.add_biclique(left, right, weights)
        assert _layout(g) == layout
        assert g.freeze() is snapshot
        if len(weights) == len(left) * len(right):
            # The same message the add_edge loop raises at its first
            # failing edge (the loop itself writes the edges before it).
            with pytest.raises(GraphError) as looped:
                _biclique_loop(DiGraph(["q"], g.edges()), left, right, weights)
            assert str(raised.value) == str(looped.value)

    def test_empty_side_writes_nothing(self):
        g = DiGraph(["a"])
        snapshot = g.freeze()
        g.add_biclique(["a", "b"], [], [])
        g.add_biclique([], ["c"], [])
        assert g.nodes() == ["a"]
        assert g.freeze() is snapshot
