"""Tests for repro.graphs.karger_stein."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.generators import planted_min_cut_ugraph, random_connected_ugraph
from repro.graphs.karger_stein import karger_stein_min_cut
from repro.graphs.mincut import stoer_wagner
from repro.graphs.ugraph import UGraph


class TestKargerStein:
    @given(st.integers(4, 10), st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_matches_stoer_wagner(self, n, seed):
        g = random_connected_ugraph(
            n, extra_edge_prob=0.5, rng=seed, weight_range=(0.5, 3.0)
        )
        ks_value, ks_side = karger_stein_min_cut(g, rng=seed)
        sw_value, _ = stoer_wagner(g)
        assert ks_value == pytest.approx(sw_value)
        assert g.cut_weight(ks_side) == pytest.approx(sw_value)

    def test_planted_cut(self):
        g, k = planted_min_cut_ugraph(9, 2, rng=1)
        value, _ = karger_stein_min_cut(g, rng=1)
        assert value == pytest.approx(float(k))

    def test_disconnected_returns_zero(self):
        g = UGraph(edges=[("a", "b", 1.0), ("c", "d", 1.0)])
        value, _ = karger_stein_min_cut(g, rng=2)
        assert value == 0.0

    def test_two_nodes(self):
        g = UGraph(edges=[("a", "b", 2.5)])
        value, side = karger_stein_min_cut(g, rng=3)
        assert value == 2.5

    def test_too_small_raises(self):
        with pytest.raises(GraphError):
            karger_stein_min_cut(UGraph(nodes=["a"]))

    def test_explicit_repetitions(self):
        g = random_connected_ugraph(7, rng=4)
        value, _ = karger_stein_min_cut(g, repetitions=3, rng=4)
        assert value >= stoer_wagner(g)[0] - 1e-9
