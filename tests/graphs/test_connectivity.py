"""Tests for repro.graphs.connectivity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.connectivity import (
    certify_pairwise_connectivity,
    edge_connectivity,
    edge_disjoint_path_count,
    is_gamma_connected,
    is_strongly_connected,
)
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import (
    cycle_digraph,
    random_connected_ugraph,
    random_regularish_ugraph,
)
from repro.graphs.mincut import stoer_wagner
from repro.graphs.ugraph import UGraph


class TestStrongConnectivity:
    def test_cycle_is_strong(self):
        assert is_strongly_connected(cycle_digraph(5))

    def test_one_way_path_is_not(self):
        g = DiGraph()
        g.add_edge("a", "b", 1.0)
        assert not is_strongly_connected(g)

    def test_two_way_pair(self):
        g = DiGraph()
        g.add_edge("a", "b", 1.0)
        g.add_edge("b", "a", 1.0)
        assert is_strongly_connected(g)

    def test_trivial_graphs(self):
        assert is_strongly_connected(DiGraph())
        assert is_strongly_connected(DiGraph(nodes=["a"]))

    def test_disconnected_node(self):
        g = cycle_digraph(3)
        g.add_node("lonely")
        assert not is_strongly_connected(g)


class TestEdgeDisjointPaths:
    def test_parallel_structure(self):
        # Two internally disjoint paths s-a-t and s-b-t.
        g = UGraph(edges=[("s", "a", 1.0), ("a", "t", 1.0),
                          ("s", "b", 1.0), ("b", "t", 1.0)])
        assert edge_disjoint_path_count(g, "s", "t") == 2

    def test_bridge_limits_paths(self):
        g = UGraph(edges=[("s", "m", 1.0), ("m", "t", 1.0),
                          ("s", "m2", 1.0), ("m2", "m", 1.0)])
        assert edge_disjoint_path_count(g, "s", "t") == 1

    def test_weights_are_ignored(self):
        """Menger counts edges, not weight — Section 5 is unweighted."""
        g = UGraph(edges=[("s", "t", 100.0)])
        assert edge_disjoint_path_count(g, "s", "t") == 1
        assert g.freeze()._residual is None  # flows ran on a unit copy

    def test_unit_graph_flows_on_its_own_snapshot(self):
        """A unit-weight graph's cached snapshot is its unit view: every
        count on the unchanged graph reuses one residual network."""
        g = UGraph(edges=[("s", "a", 1.0), ("a", "t", 1.0),
                          ("s", "b", 1.0), ("b", "t", 1.0)])
        counts = [edge_disjoint_path_count(g, "s", v) for v in ("t", "a", "t")]
        assert counts == [2, 2, 2]
        assert g.freeze().residual_network().solves == 3

    def test_same_endpoints_raise(self):
        g = UGraph(edges=[("s", "t", 1.0)])
        with pytest.raises(GraphError):
            edge_disjoint_path_count(g, "s", "s")

    def test_disconnected_pair(self):
        g = UGraph(nodes=["s", "t"])
        assert edge_disjoint_path_count(g, "s", "t") == 0


class TestEdgeConnectivity:
    def test_cycle(self):
        g = UGraph()
        for i in range(5):
            g.add_edge(i, (i + 1) % 5, 1.0)
        assert edge_connectivity(g) == 2

    def test_tree_is_1_connected(self):
        g = UGraph(edges=[("a", "b", 1.0), ("b", "c", 1.0)])
        assert edge_connectivity(g) == 1

    @given(st.integers(4, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_matches_unweighted_min_cut(self, n, seed):
        g = random_regularish_ugraph(n, 4, rng=seed)
        # All weights are 1, so edge connectivity == weighted min cut.
        assert edge_connectivity(g) == pytest.approx(stoer_wagner(g)[0])

    def test_gamma_connected_flags(self):
        g = UGraph()
        for i in range(4):
            g.add_edge(i, (i + 1) % 4, 1.0)
        assert is_gamma_connected(g, 2)
        assert not is_gamma_connected(g, 3)
        assert is_gamma_connected(g, 0)
        with pytest.raises(GraphError):
            is_gamma_connected(g, -1)

    def test_too_small_raises(self):
        with pytest.raises(GraphError):
            edge_connectivity(UGraph(nodes=["a"]))


class TestCertification:
    def test_passing_certificate(self):
        g = random_regularish_ugraph(8, 4, rng=7)
        pairs = [(0, 4), (1, 5)]
        counts = certify_pairwise_connectivity(g, pairs, gamma=2)
        assert all(v >= 2 for v in counts.values())

    def test_failing_certificate_names_pair(self):
        g = UGraph(edges=[("a", "b", 1.0), ("b", "c", 1.0)])
        with pytest.raises(GraphError, match="edge-disjoint"):
            certify_pairwise_connectivity(g, [("a", "c")], gamma=2)
