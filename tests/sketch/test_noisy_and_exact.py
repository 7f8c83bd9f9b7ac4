"""Tests for repro.sketch.exact, repro.sketch.noisy, and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, SketchError
from repro.graphs.cuts import all_directed_cut_values, enumerate_cut_sides
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import random_balanced_digraph
from repro.sketch.base import SketchModel
from repro.sketch.exact import ExactCutSketch
from repro.sketch.noisy import NoisyForAllSketch, NoisyForEachSketch
from repro.sketch.serialization import (
    edge_bits,
    graph_size_bits,
    node_id_bits,
)


@pytest.fixture
def graph():
    return random_balanced_digraph(8, beta=3.0, density=0.4, rng=0)


#: Each sketch class, built the same way every time (seeded noise).
_SKETCHES = {
    "exact": ExactCutSketch,
    "noisy for-each": lambda g: NoisyForEachSketch(
        g, epsilon=0.3, failure_prob=0.25, rng=7
    ),
    "noisy for-all": lambda g: NoisyForAllSketch(g, epsilon=0.3, seed=7),
}


def _shuffled_graph(weights):
    """A 7-node digraph whose edges were added in shuffled order (so its
    predecessor dicts are out of node order), with non-dyadic float
    weights (k/7) or int weights."""
    rng = np.random.default_rng(4)
    pairs = [(u, v) for u in range(7) for v in range(7) if u != v]
    order = rng.permutation(len(pairs))[:26]
    g = DiGraph(nodes=range(7))
    for index in order:
        k = int(rng.integers(0, 30))
        g.add_edge(*pairs[index], k / 7 if weights == "float" else k)
    return g


class TestExactSketch:
    def test_model_and_epsilon(self, graph):
        sketch = ExactCutSketch(graph)
        assert sketch.model is SketchModel.EXACT
        assert sketch.epsilon == 0.0

    def test_answers_every_cut_exactly(self, graph):
        sketch = ExactCutSketch(graph)
        for side, value in all_directed_cut_values(graph):
            assert sketch.query(set(side)) == pytest.approx(value)

    def test_isolated_from_later_mutation(self):
        """Every sketch class answers from what it held at build time:
        after its source is mutated, each answer (noise included) and
        its size equal those of the same sketch built on a copy taken
        before the mutation — on every cut, both sides of n/2."""
        for kind, make in _SKETCHES.items():
            for weights in ("float", "int"):
                where = f"{kind} sketch, {weights} weights"
                graph = _shuffled_graph(weights)
                before = graph.copy()
                sketch, twin = make(graph), make(before)
                labels = graph.nodes()
                u, v, w = next(graph.edges())
                graph.add_edge(u, v, w + 100, combine="set")
                a, b = next(
                    (a, b) for a in labels for b in labels
                    if a != b and not graph.has_edge(a, b)
                )
                graph.add_edge(a, b, 3)
                graph.remove_node(labels[-1])
                sides = [set(side) for side in enumerate_cut_sides(labels)]
                assert any(2 * len(side) > len(labels) for side in sides)
                answers = [sketch.query(side) for side in sides]
                assert answers == [twin.query(side) for side in sides], where
                if kind == "exact":  # summed in the copy's order, too
                    assert answers == [before.cut_weight(s) for s in sides], where
                assert sketch.query_many(sides) == twin.query_many(sides), where
                if kind == "exact":
                    member = np.array([[x in side for x in labels] for side in sides])
                    assert (
                        sketch.query_rows(labels, member).tolist()
                        == twin.query_rows(labels, member).tolist()
                    ), where
                assert sketch.size_bits() == twin.size_bits(), where

    def test_size_positive(self, graph):
        assert ExactCutSketch(graph).size_bits() > 0


class TestNoisyForEach:
    def test_error_within_epsilon(self, graph):
        sketch = NoisyForEachSketch(graph, epsilon=0.1, rng=1)
        for side, value in all_directed_cut_values(graph):
            estimate = sketch.query(set(side))
            if value > 0:
                assert abs(estimate - value) <= 0.1 * value + 1e-12

    def test_fresh_noise_per_query(self, graph):
        sketch = NoisyForEachSketch(graph, epsilon=0.2, rng=2)
        side = {graph.nodes()[0]}
        answers = {sketch.query(side) for _ in range(10)}
        assert len(answers) > 1

    def test_failure_injection(self, graph):
        sketch = NoisyForEachSketch(graph, epsilon=0.0, failure_prob=0.5, rng=3)
        side = {graph.nodes()[0]}
        true_value = graph.cut_weight(side)
        answers = [sketch.query(side) for _ in range(50)]
        bad = sum(1 for a in answers if abs(a - true_value) > 1e-9)
        assert 5 < bad < 45  # roughly half fail

    def test_adversarial_noise_is_extremal(self, graph):
        sketch = NoisyForEachSketch(graph, epsilon=0.1, adversarial=True, rng=4)
        side = {graph.nodes()[0]}
        value = graph.cut_weight(side)
        for _ in range(10):
            estimate = sketch.query(side)
            assert abs(abs(estimate - value) - 0.1 * value) < 1e-9

    def test_bad_params(self, graph):
        with pytest.raises(SketchError):
            NoisyForEachSketch(graph, epsilon=1.0)
        with pytest.raises(SketchError):
            NoisyForEachSketch(graph, epsilon=0.1, failure_prob=1.0)


class TestNoisyForAll:
    def test_error_within_epsilon_for_all_cuts(self, graph):
        sketch = NoisyForAllSketch(graph, epsilon=0.15, seed=5)
        for side, value in all_directed_cut_values(graph):
            estimate = sketch.query(set(side))
            assert abs(estimate - value) <= 0.15 * value + 1e-12

    def test_consistent_across_queries(self, graph):
        sketch = NoisyForAllSketch(graph, epsilon=0.2, seed=6)
        side = {graph.nodes()[0], graph.nodes()[3]}
        assert sketch.query(side) == sketch.query(set(side))

    def test_different_seeds_different_noise(self, graph):
        side = {graph.nodes()[0]}
        a = NoisyForAllSketch(graph, epsilon=0.2, seed=1).query(side)
        b = NoisyForAllSketch(graph, epsilon=0.2, seed=2).query(side)
        assert a != b

    @given(st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_adversarial_magnitude_pinned(self, seed):
        g = random_balanced_digraph(6, beta=2.0, rng=0)
        sketch = NoisyForAllSketch(g, epsilon=0.1, adversarial=True, seed=seed)
        side = {g.nodes()[0]}
        value = g.cut_weight(side)
        assert abs(abs(sketch.query(side) - value) - 0.1 * value) < 1e-9

    def test_bad_epsilon(self, graph):
        with pytest.raises(SketchError):
            NoisyForAllSketch(graph, epsilon=-0.1)


def _rows(labels, count, seed):
    """``count`` random proper membership rows over ``labels`` and their
    label sets; a trailing ``"absent"`` label is never a member."""
    member = np.random.default_rng(seed).random((count, len(labels))) < 0.5
    member[:, 0] = True
    member[:, -1] = False
    sides = [frozenset(l for l, bit in zip(labels, row) if bit) for row in member]
    return member, sides


@pytest.mark.parametrize("order", ["own", "reversed_plus_absent"])
def test_query_rows_equals_query_many(graph, order):
    """Rows over the sketch's own labels or over a permutation with an
    extra, unused label answer exactly like the same sides' query_many."""
    labels = graph.nodes()
    if order != "own":
        labels = labels[::-1] + ["absent"]
    member, sides = _rows(labels, 40, seed=3)
    sketch = ExactCutSketch(graph)
    answers = sketch.query_rows(labels, member)
    assert answers.dtype == np.float64
    assert answers.tolist() == sketch.query_many(sides)


def test_reindex_membership_identity_and_errors(graph):
    csr = graph.freeze()
    member, _ = _rows(graph.nodes(), 5, seed=1)
    assert csr.reindex_membership(graph.nodes(), member) is member
    labels = graph.nodes() + ["absent"]
    used = np.zeros((2, len(labels)), dtype=bool)
    used[1, [0, -1]] = True
    with pytest.raises(GraphError, match="absent"):
        ExactCutSketch(graph).query_rows(labels, used)
    with pytest.raises(GraphError, match="columns"):
        csr.reindex_membership(labels, member)
    with pytest.raises(GraphError, match="proper"):
        ExactCutSketch(graph).query_rows(graph.nodes(), np.zeros((1, 8), dtype=bool))


class TestSerialization:
    def test_node_id_bits(self):
        assert node_id_bits(2) == 1
        assert node_id_bits(1024) == 10
        assert node_id_bits(1025) == 11
        with pytest.raises(SketchError):
            node_id_bits(0)

    def test_edge_bits(self):
        assert edge_bits(4, weight_bits=32) == 2 * 2 + 32
        with pytest.raises(SketchError):
            edge_bits(4, weight_bits=-1)

    def test_graph_size_scales_with_edges(self):
        small = DiGraph()
        small.add_edge(0, 1, 1.0)
        big = DiGraph()
        for i in range(10):
            big.add_edge(i, i + 1, 1.0)
        assert graph_size_bits(big) > graph_size_bits(small)
