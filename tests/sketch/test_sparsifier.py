"""Tests for repro.sketch.sparsifier and repro.sketch.directed."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError, SketchError
from repro.graphs.cuts import (
    all_directed_cut_values,
    all_undirected_cut_values,
    max_cut_error,
    max_directed_cut_error,
)
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import (
    random_balanced_digraph,
    random_eulerian_digraph,
    random_regularish_ugraph,
)
from repro.graphs.ugraph import UGraph
from repro.sketch.base import SketchModel
from repro.sketch.directed import BalancedDigraphSparsifier
from repro.sketch.sparsifier import (
    SparsifierSketch,
    importance_sparsify,
    uniform_sparsify,
)


def dense_ugraph(n: int, rng) -> UGraph:
    g = UGraph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v, 1.0)
    return g


class TestUniformSparsify:
    def test_keep_all(self):
        g = random_regularish_ugraph(10, 4, rng=0)
        sparse = uniform_sparsify(g, 1.0, rng=0)
        assert sparse.num_edges == g.num_edges

    def test_reweighting_unbiased_in_expectation(self):
        g = dense_ugraph(8, None)
        total = 0.0
        trials = 60
        side = set(range(4))
        for seed in range(trials):
            sparse = uniform_sparsify(g, 0.5, rng=seed)
            total += sparse.cut_weight(side) if sparse.num_nodes else 0.0
        mean = total / trials
        assert mean == pytest.approx(g.cut_weight(side), rel=0.25)

    def test_bad_prob(self):
        g = dense_ugraph(4, None)
        with pytest.raises(ParameterError):
            uniform_sparsify(g, 0.0)
        with pytest.raises(ParameterError):
            uniform_sparsify(g, 1.5)


class TestImportanceSparsify:
    def test_preserves_all_cuts_on_dense_graph(self):
        g = dense_ugraph(10, None)
        sparse = importance_sparsify(g, epsilon=0.5, rng=1, connectivity="exact")
        err = max_cut_error(g, sparse.cut_weight)
        # Empirical for-all error should be in the epsilon ballpark.
        assert err < 0.5

    def test_sparsifies_when_connectivity_high(self):
        g = dense_ugraph(14, None)
        sparse = importance_sparsify(
            g, epsilon=0.9, rng=2, constant=0.3, connectivity="exact"
        )
        assert sparse.num_edges < g.num_edges

    def test_keeps_bridges(self):
        # A bridge has local connectivity 1 => p = 1 => always kept.
        g = dense_ugraph(5, None)
        g.add_edge(100, 0, 1.0)
        sparse = importance_sparsify(g, epsilon=0.5, rng=3, connectivity="exact")
        assert sparse.has_edge(100, 0)

    def test_disconnected_rejected(self):
        g = UGraph(edges=[("a", "b", 1.0)])
        g.add_node("c")
        with pytest.raises(SketchError):
            importance_sparsify(g, epsilon=0.5, connectivity="mincut")

    def test_bad_params(self):
        g = dense_ugraph(4, None)
        with pytest.raises(ParameterError):
            importance_sparsify(g, epsilon=0.0)
        with pytest.raises(ParameterError):
            importance_sparsify(g, epsilon=0.5, connectivity="bogus")

    @pytest.mark.parametrize("constant", [0.0, -1.0, float("nan")])
    def test_non_positive_constant_rejected(self, constant):
        with pytest.raises(SketchError, match="sampling constant"):
            importance_sparsify(dense_ugraph(4, None), epsilon=0.5, constant=constant)


class TestSparsifierSketch:
    def test_model(self):
        g = random_balanced_digraph(6, beta=2.0, rng=4)
        sketch = SparsifierSketch(g, epsilon=0.5, rng=4)
        assert sketch.model is SketchModel.FOR_ALL
        assert sketch.epsilon == 0.5

    def test_directed_pairs_sampled_together(self):
        g = random_balanced_digraph(8, beta=3.0, density=0.5, rng=5)
        sketch = SparsifierSketch(g, epsilon=0.6, rng=5)
        sparse = sketch.sparse_graph
        for u, v, _ in sparse.edges():
            if g.weight(v, u) > 0:
                assert sparse.has_edge(v, u)

    def test_unbiased_direction_shares(self):
        g = DiGraph()
        g.add_edge("a", "b", 3.0)
        g.add_edge("b", "a", 1.0)
        sketch = SparsifierSketch(g, epsilon=0.2, rng=6)
        sparse = sketch.sparse_graph
        # At eps = 0.2 the sampling probability clamps to 1, so both
        # directions survive at their original weights.
        assert sparse.weight("a", "b") == pytest.approx(3.0)
        assert sparse.weight("b", "a") == pytest.approx(1.0)

    def test_from_undirected_reproduces_cut_values(self):
        g = random_regularish_ugraph(8, 4, rng=7)
        sketch = SparsifierSketch.from_undirected(g, epsilon=0.4, rng=7)
        # With p = 1 everywhere (low connectivity), queries are exact.
        for side, value in all_undirected_cut_values(g):
            assert sketch.query(set(side)) == pytest.approx(value)

    @pytest.mark.parametrize("constant", [0.0, -1.0, float("nan")])
    def test_non_positive_constant_rejected(self, constant):
        # Such a constant used to build an empty sketch answering 0.0.
        g = dense_ugraph(6, None)
        with pytest.raises(SketchError, match="sampling constant"):
            SparsifierSketch.from_undirected(g, epsilon=0.5, rng=1, constant=constant)

    def test_size_bits_reflects_sample(self):
        g = dense_ugraph(12, None)
        small = SparsifierSketch.from_undirected(
            g, epsilon=0.9, rng=8, constant=0.2
        )
        full = SparsifierSketch.from_undirected(g, epsilon=0.1, rng=8)
        assert small.size_bits() <= full.size_bits()


class TestBalancedDigraphSparsifier:
    def test_infers_beta(self):
        g = random_balanced_digraph(6, beta=4.0, rng=9)
        sketch = BalancedDigraphSparsifier(g, epsilon=0.5, rng=9)
        assert sketch.beta <= 4.0 + 1e-6

    def test_rejects_unreversed_edges_without_beta(self):
        g = DiGraph()
        g.add_edge("a", "b", 1.0)
        g.add_edge("b", "c", 1.0)
        g.add_edge("c", "a", 1.0)
        with pytest.raises(SketchError):
            BalancedDigraphSparsifier(g, epsilon=0.5)

    def test_explicit_beta_accepted_for_cycles(self):
        from repro.graphs.generators import cycle_digraph

        g = cycle_digraph(5)
        sketch = BalancedDigraphSparsifier(g, epsilon=0.5, beta=1.0, rng=10)
        assert sketch.beta == 1.0

    @pytest.mark.parametrize("n,seed", [(5, 0), (6, 1), (7, 2), (8, 3)])
    def test_directed_cut_error_bounded_empirically(self, n, seed):
        # The (1 +- eps) guarantee is probabilistic; an oversampling
        # constant of 3 makes it hold on these fixed seeds (a sharper
        # statistical sweep lives in the sparsifier benchmark).
        g = random_eulerian_digraph(n, cycles=3, rng=seed)
        sketch = BalancedDigraphSparsifier(
            g, epsilon=0.8, beta=1.0, rng=seed, constant=3.0
        )
        err = max_directed_cut_error(g, sketch.query)
        assert err <= 0.8 + 1e-9

    def test_bad_epsilon(self):
        g = random_balanced_digraph(5, beta=2.0, rng=11)
        with pytest.raises(SketchError):
            BalancedDigraphSparsifier(g, epsilon=1.5)
        with pytest.raises(SketchError):
            BalancedDigraphSparsifier(g, epsilon=0.5, beta=0.5)
