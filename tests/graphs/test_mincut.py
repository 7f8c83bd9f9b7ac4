"""Tests for repro.graphs.mincut: Stoer–Wagner, Karger, directed min cut."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import GraphError
from repro.graphs.cuts import brute_force_directed_min_cut, brute_force_min_cut
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import (
    planted_min_cut_ugraph,
    random_balanced_digraph,
    random_connected_ugraph,
)
from repro.graphs.maxflow import max_flow
from repro.graphs.mincut import (
    directed_global_min_cut,
    karger_min_cut,
    sample_near_min_cuts,
    snapshot_min_cut_value,
    stoer_wagner,
)
from repro.graphs.ugraph import UGraph
from repro.kernels import available_backends, using_backend
from repro.obs.sink import ListSink


def per_flow_directed_min_cut(graph):
    """``directed_global_min_cut`` as it was: one ``max_flow`` call, and
    one source side, per solve."""
    nodes = graph.nodes()
    root = nodes[0]
    best_value = float("inf")
    best_side = frozenset()
    for other in nodes[1:]:
        fwd = max_flow(graph, root, other)
        if fwd.value < best_value:
            best_value = fwd.value
            best_side = fwd.source_side
        bwd = max_flow(graph, other, root)
        if bwd.value < best_value:
            best_value = bwd.value
            best_side = bwd.source_side
    return best_value, best_side


@st.composite
def _tied_digraphs(draw):
    """Digraphs on 2–10 shuffled labels with weights in {1, 2}, so many
    cuts tie for the minimum; some have a dangling node (minimum 0)."""
    n = draw(st.integers(2, 10))
    labels = draw(st.permutations([f"v{i}" for i in range(n)]))
    g = DiGraph(nodes=labels)
    for i in range(n):
        if draw(st.booleans()) or i + 1 < n:
            g.add_edge(labels[i], labels[(i + 1) % n], float(draw(st.integers(1, 2))))
    for _ in range(draw(st.integers(0, 2 * n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v:
            g.add_edge(labels[u], labels[v], float(draw(st.integers(1, 2))), combine="set")
    return g


class TestStoerWagner:
    def test_path_graph(self):
        g = UGraph(edges=[("a", "b", 3.0), ("b", "c", 1.0), ("c", "d", 2.0)])
        value, side = stoer_wagner(g)
        assert value == 1.0
        assert g.cut_weight(side) == 1.0

    def test_disconnected_returns_zero(self):
        g = UGraph(edges=[("a", "b", 1.0), ("c", "d", 1.0)])
        value, side = stoer_wagner(g)
        assert value == 0.0

    def test_two_nodes(self):
        g = UGraph(edges=[("a", "b", 4.5)])
        value, _ = stoer_wagner(g)
        assert value == 4.5

    @given(
        st.integers(2, 14),
        st.sampled_from([0.0, 0.15, 0.4, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_snapshot_value_is_zero_exactly_when_disconnected(self, n, density, seed):
        """The kernel alone returns exactly stoer_wagner's value, 0.0 on
        a disconnected graph, with no component check of its own."""
        rng = np.random.default_rng(seed)
        g = UGraph(nodes=range(n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    g.add_edge(i, j, float(rng.integers(1, 4)))
        expected = stoer_wagner(g)[0]
        assert (expected == 0.0) == (not g.is_connected())
        for name in available_backends():
            with using_backend(name):
                assert snapshot_min_cut_value(g.freeze()) == expected

    def test_nan_edge_cannot_reach_the_solver(self):
        """On the path 0-1-2 with NaN on 0-1 the solver answered (1.0, {2}),
        silently ignoring the NaN edge; the graph now refuses it."""
        g = UGraph(edges=[(1, 2, 1.0)])
        with pytest.raises(GraphError):
            g.add_edge(0, 1, float("nan"))
        assert g.nodes() == [1, 2]
        assert stoer_wagner(g)[0] == 1.0

    def test_single_node_raises(self):
        with pytest.raises(GraphError):
            stoer_wagner(UGraph(nodes=["a"]))

    def test_planted_cut_found(self):
        g, k = planted_min_cut_ugraph(10, 3, rng=0)
        value, _ = stoer_wagner(g)
        assert value == float(k)

    @given(st.integers(3, 9), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, n, seed):
        g = random_connected_ugraph(n, extra_edge_prob=0.4, rng=seed,
                                    weight_range=(0.5, 3.0))
        sw_value, sw_side = stoer_wagner(g)
        bf_value, _ = brute_force_min_cut(g)
        assert sw_value == pytest.approx(bf_value)
        assert g.cut_weight(sw_side) == pytest.approx(bf_value)


class TestKarger:
    @given(st.integers(4, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_matches_stoer_wagner(self, n, seed):
        g = random_connected_ugraph(n, extra_edge_prob=0.4, rng=seed)
        k_value, k_side = karger_min_cut(g, rng=seed)
        sw_value, _ = stoer_wagner(g)
        assert k_value == pytest.approx(sw_value)
        assert g.cut_weight(k_side) == pytest.approx(sw_value)

    def test_respects_weights(self):
        # Heavy edge should never be the min cut.
        g = UGraph(edges=[("a", "b", 100.0), ("b", "c", 1.0)])
        value, side = karger_min_cut(g, rng=0)
        assert value == 1.0

    def test_disconnected(self):
        g = UGraph(edges=[("a", "b", 1.0)])
        g.add_node("c")
        value, _ = karger_min_cut(g, rng=1)
        assert value == 0.0

    def test_too_small_raises(self):
        with pytest.raises(GraphError):
            karger_min_cut(UGraph(nodes=["a"]))

    def test_explicit_trials(self):
        g = random_connected_ugraph(5, rng=2)
        value, _ = karger_min_cut(g, trials=50, rng=2)
        assert value >= stoer_wagner(g)[0] - 1e-9


class TestNearMinCuts:
    def test_includes_the_minimum(self):
        g, k = planted_min_cut_ugraph(8, 2, rng=1)
        cuts = sample_near_min_cuts(g, factor=1.5, attempts=100, rng=1)
        assert cuts[0][0] == pytest.approx(float(k))

    def test_all_within_factor(self):
        g = random_connected_ugraph(8, extra_edge_prob=0.5, rng=4)
        base, _ = stoer_wagner(g)
        cuts = sample_near_min_cuts(g, factor=2.0, attempts=200, rng=4)
        for value, side in cuts:
            assert value <= 2.0 * base + 1e-9
            assert g.cut_weight(side) == pytest.approx(value)

    def test_sides_are_distinct(self):
        g = random_connected_ugraph(8, extra_edge_prob=0.5, rng=5)
        cuts = sample_near_min_cuts(g, factor=3.0, attempts=200, rng=5)
        sides = [side for _, side in cuts]
        assert len(sides) == len(set(sides))

    def test_factor_below_one_raises(self):
        g = random_connected_ugraph(4, rng=0)
        with pytest.raises(GraphError):
            sample_near_min_cuts(g, factor=0.5, attempts=10)


class TestDirectedGlobalMinCut:
    def test_simple_cycle(self):
        g = DiGraph()
        g.add_edge("a", "b", 2.0)
        g.add_edge("b", "c", 3.0)
        g.add_edge("c", "a", 1.0)
        value, side = directed_global_min_cut(g)
        assert value == 1.0
        assert g.cut_weight(side) == 1.0

    def test_asymmetric_pair(self):
        g = DiGraph()
        g.add_edge("a", "b", 9.0)
        g.add_edge("b", "a", 2.0)
        value, side = directed_global_min_cut(g)
        assert value == 2.0
        assert side == frozenset({"b"})

    @given(st.integers(3, 7), st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_matches_brute_force(self, n, seed):
        g = random_balanced_digraph(n, beta=4.0, density=0.4, rng=seed)
        flow_value, flow_side = directed_global_min_cut(g)
        bf_value, _ = brute_force_directed_min_cut(g)
        assert flow_value == pytest.approx(bf_value)
        assert g.cut_weight(flow_side) == pytest.approx(bf_value)

    def test_too_small_raises(self):
        with pytest.raises(GraphError):
            directed_global_min_cut(DiGraph(nodes=["a"]))

    def test_records_per_flow_counters(self):
        g = random_balanced_digraph(5, beta=2.0, density=0.5, rng=1)
        obs.reset_metrics()
        with obs.enabled(ListSink()):
            directed_global_min_cut(g)
        snap = obs.snapshot()
        obs.reset_metrics()
        assert snap["maxflow.calls.csr"] == 8
        assert snap["csr.maxflow.calls"] == 8
        assert snap["csr.maxflow.phases.count"] == 8

    @given(_tied_digraphs())
    @settings(max_examples=100, deadline=None)
    def test_matches_per_flow_loop_on_ties(self, g):
        expected = per_flow_directed_min_cut(g)
        for name in available_backends():
            with using_backend(name):
                assert directed_global_min_cut(g) == expected
