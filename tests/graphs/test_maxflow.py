"""Tests for repro.graphs.maxflow (Dinic) against first principles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.cuts import enumerate_cut_sides
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import random_connected_ugraph
from repro.graphs.maxflow import max_flow, max_flow_undirected, min_st_cut
from repro.graphs.ugraph import UGraph


def brute_force_st_cut(graph: DiGraph, s, t) -> float:
    """Min over all cuts separating s from t, by enumeration."""
    best = float("inf")
    for side in enumerate_cut_sides(graph.nodes()):
        if s in side and t not in side:
            best = min(best, graph.cut_weight(side))
    return best


class TestMaxFlowBasics:
    def test_single_path(self):
        g = DiGraph()
        g.add_edge("s", "a", 3.0)
        g.add_edge("a", "t", 2.0)
        assert max_flow(g, "s", "t").value == 2.0

    def test_parallel_paths(self):
        g = DiGraph()
        g.add_edge("s", "a", 1.0)
        g.add_edge("a", "t", 1.0)
        g.add_edge("s", "b", 2.0)
        g.add_edge("b", "t", 2.0)
        assert max_flow(g, "s", "t").value == 3.0

    def test_no_path_zero_flow(self):
        g = DiGraph(nodes=["s", "t"])
        g.add_edge("t", "s", 5.0)  # wrong direction only
        assert max_flow(g, "s", "t").value == 0.0

    def test_classic_diamond(self):
        g = DiGraph()
        for u, v, w in (
            ("s", "a", 10.0), ("s", "b", 10.0), ("a", "b", 1.0),
            ("a", "t", 8.0), ("b", "t", 10.0),
        ):
            g.add_edge(u, v, w)
        # t's in-capacity is 18 and it is achievable (s->a->t 8, s->b->t 10).
        assert max_flow(g, "s", "t").value == 18.0

    def test_source_equals_sink_raises(self):
        g = DiGraph()
        g.add_edge("s", "t", 1.0)
        with pytest.raises(GraphError):
            max_flow(g, "s", "s")

    def test_unknown_endpoints_raise(self):
        g = DiGraph()
        g.add_edge("s", "t", 1.0)
        with pytest.raises(GraphError):
            max_flow(g, "s", "zzz")


class TestMinCutCertificate:
    def test_source_side_is_min_cut(self):
        g = DiGraph()
        g.add_edge("s", "a", 5.0)
        g.add_edge("a", "t", 1.0)
        result = max_flow(g, "s", "t")
        assert result.source_side == frozenset({"s", "a"})
        assert g.cut_weight(result.source_side) == result.value

    def test_min_st_cut_wrapper(self):
        g = DiGraph()
        g.add_edge("s", "t", 4.0)
        value, side = min_st_cut(g, "s", "t")
        assert value == 4.0
        assert "s" in side and "t" not in side

    @given(st.integers(3, 7), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_duality_on_random_digraphs(self, n, seed):
        """Max-flow value equals brute-force min s-t cut (LP duality)."""
        import numpy as np

        gen = np.random.default_rng(seed)
        g = DiGraph(nodes=range(n))
        for u in range(n):
            for v in range(n):
                if u != v and gen.random() < 0.5:
                    g.add_edge(u, v, float(gen.integers(1, 10)))
        s, t = 0, n - 1
        result = max_flow(g, s, t)
        assert result.value == pytest.approx(brute_force_st_cut(g, s, t))
        # The certificate side achieves the optimum.
        if 0 < len(result.source_side) < n:
            assert g.cut_weight(result.source_side) == pytest.approx(result.value)

    @given(st.integers(3, 7), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_flow_conservation(self, n, seed):
        import numpy as np

        gen = np.random.default_rng(seed)
        g = DiGraph(nodes=range(n))
        for u in range(n):
            for v in range(n):
                if u != v and gen.random() < 0.4:
                    g.add_edge(u, v, float(gen.integers(1, 5)))
        result = max_flow(g, 0, n - 1)
        for node in range(1, n - 1):
            inflow = sum(
                result.edge_flows.get((u, node), 0.0) for u in range(n) if u != node
            )
            outflow = sum(
                result.edge_flows.get((node, v), 0.0) for v in range(n) if v != node
            )
            assert inflow == pytest.approx(outflow, abs=1e-9)

    def test_capacity_respected(self):
        g = DiGraph()
        g.add_edge("s", "a", 2.0)
        g.add_edge("a", "t", 9.0)
        result = max_flow(g, "s", "t")
        for (u, v), f in result.edge_flows.items():
            assert 0.0 <= f <= g.weight(u, v) + 1e-9

    def test_edge_flows_built_once_on_first_read(self):
        g = DiGraph()
        g.add_edge("s", "a", 2.0)
        g.add_edge("a", "t", 9.0)
        result = max_flow(g, "s", "t")
        assert "edge_flows" not in vars(result)
        g.add_edge("s", "t", 5.0)  # the flows describe the solved snapshot
        flows = result.edge_flows
        assert flows == {("s", "a"): 2.0, ("a", "t"): 2.0}
        assert result.edge_flows is flows


class TestUndirectedFlow:
    def test_undirected_path(self):
        g = UGraph(edges=[("s", "a", 2.0), ("a", "t", 3.0)])
        assert max_flow_undirected(g, "s", "t").value == 2.0

    def test_matches_undirected_min_cut(self):
        g = random_connected_ugraph(7, extra_edge_prob=0.4, rng=3)
        nodes = g.nodes()
        s, t = nodes[0], nodes[-1]
        flow = max_flow_undirected(g, s, t).value
        best = float("inf")
        for side in enumerate_cut_sides(nodes):
            if s in side and t not in side:
                best = min(best, g.cut_weight(side))
        assert flow == pytest.approx(best)
