"""Karger contraction through the ``karger_runs`` kernel slot, bit for bit.

``sample_near_min_cuts`` and ``karger_min_cut`` must return what their
dict-of-dicts versions in :mod:`tests.graphs.dict_contraction` return,
on every available backend, and leave the generator in the same state.
The step totals follow the running interpreter's builtin ``sum()``:
plain before CPython 3.12, compensated from 3.12 on.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs import mincut
from repro.graphs.csr import _DENSE_N_LIMIT
from repro.graphs.mincut import karger_min_cut, sample_near_min_cuts
from repro.graphs.ugraph import UGraph
from repro.kernels import available_backends, registry, using_backend
from repro.kernels.reference import SUM_IS_COMPENSATED, float_sum
from tests.graphs import dict_contraction as oracle


@pytest.fixture(autouse=True)
def _clean_kernel_state(monkeypatch):
    monkeypatch.delenv("REPRO_KERNELS", raising=False)
    registry._reset_for_tests()
    yield
    registry._reset_for_tests()


_WEIGHTS = {
    "unit": st.just(1.0),
    "small_int": st.integers(1, 9),
    "float": st.floats(0.01, 100.0, allow_nan=False, allow_infinity=False),
}


@st.composite
def _graphs(draw):
    """A connected graph on 2–40 shuffled string labels, one weight family."""
    n = draw(st.integers(2, 40))
    weight = _WEIGHTS[draw(st.sampled_from(sorted(_WEIGHTS)))]
    labels = draw(st.permutations([f"v{i}" for i in range(n)]))
    g = UGraph(nodes=labels)
    for i in range(1, n):
        parent = draw(st.integers(0, i - 1))
        g.add_edge(labels[i], labels[parent], draw(weight))
    for _ in range(draw(st.integers(0, 2 * n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v and not g.has_edge(labels[u], labels[v]):
            g.add_edge(labels[u], labels[v], draw(weight))
    return g


def _same_stream(run, seed):
    """``run(gen)`` and the generator's next draw after it."""
    gen = np.random.default_rng(seed)
    return run(gen), gen.random()


class TestAgainstDictContraction:
    @given(_graphs(), st.integers(0, 2**32 - 1), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_every_backend_matches_the_oracle(self, g, seed, runs):
        expected_cuts = _same_stream(
            lambda gen: oracle.sample_near_min_cuts(g, 1.5, runs, rng=gen), seed
        )
        expected_min = _same_stream(
            lambda gen: oracle.karger_min_cut(g, trials=runs + 1, rng=gen), seed
        )
        for name in available_backends():
            with using_backend(name):
                assert _same_stream(
                    lambda gen: sample_near_min_cuts(g, 1.5, runs, rng=gen), seed
                ) == expected_cuts
                assert _same_stream(
                    lambda gen: karger_min_cut(g, trials=runs + 1, rng=gen), seed
                ) == expected_min

    def test_batch_boundaries_match_the_oracle(self, monkeypatch):
        # Three runs a batch: the default 23 trials on 4 nodes span 8.
        monkeypatch.setattr(mincut, "_RUN_CELL_BUDGET", 24)
        g = UGraph(
            edges=[(0, 1, 2.0), (1, 2, 1.5), (2, 3, 2.5), (3, 0, 1.0), (0, 2, 0.5)]
        )
        expected_min = _same_stream(lambda gen: oracle.karger_min_cut(g, rng=gen), 3)
        expected_cuts = _same_stream(
            lambda gen: oracle.sample_near_min_cuts(g, 3.0, 10, rng=gen), 3
        )
        for name in available_backends():
            with using_backend(name):
                assert (
                    _same_stream(lambda gen: karger_min_cut(g, rng=gen), 3)
                    == expected_min
                )
                assert _same_stream(
                    lambda gen: sample_near_min_cuts(g, 3.0, 10, rng=gen), 3
                ) == expected_cuts


class _Uniforms:
    """Stands in for a generator: ``uniform`` as numpy computes it."""

    def __init__(self, values):
        self._values = iter(values)

    def uniform(self, low, high):
        return low + (high - low) * next(self._values)


class TestSumRule:
    def test_rule_is_the_interpreters_sum(self):
        rnd = random.Random(0)
        for _ in range(2000):
            size = rnd.randint(1, 40)
            xs = [rnd.random() * 10.0 ** rnd.randint(-6, 6) for _ in range(size)]
            assert float_sum(xs, SUM_IS_COMPENSATED).hex() == sum(xs).hex()

    def test_rule_decides_a_pick(self):
        # Star around node 0: one unit edge, then ten that plain addition
        # rounds away but Neumaier's correction keeps.  A first uniform
        # just below 1 picks the unit edge under the plain total and the
        # last edge under the compensated one.
        g = UGraph(edges=[(0, 1, 1.0)] + [(0, v, 1e-16) for v in range(2, 12)])
        csr = g.freeze()
        uniforms = np.full(10, 0.5)
        uniforms[0] = np.nextafter(1.0, 0.0)
        results = {False: set(), True: set()}
        for compensated in results:
            for name in available_backends():
                with using_backend(name) as backend:
                    values = np.empty(1)
                    sides = np.empty((1, 12), dtype=np.uint8)
                    backend.karger_runs(
                        csr.indptr, csr.heads, csr.weights, uniforms, compensated,
                        values, sides,
                    )
                results[compensated].add((values[0], csr.side_from_row(sides[0])))
        # One answer per rule on every backend; the rules disagree; the
        # interpreter's rule gives the dict contraction's answer.
        assert len(results[False]) == len(results[True]) == 1
        assert results[False] != results[True]
        expected = oracle._one_contraction_run(g, _Uniforms(uniforms))
        assert results[SUM_IS_COMPENSATED] == {expected}


class TestLimits:
    def test_three_components_raise_graph_error(self):
        g = UGraph(edges=[("a", "b", 1.0), ("c", "d", 1.0), ("e", "f", 1.0)])
        for name in available_backends():
            with using_backend(name):
                with pytest.raises(GraphError, match="more than two components"):
                    sample_near_min_cuts(g, factor=2.0, attempts=3, rng=0)

    def test_two_components_sample_the_components(self):
        g = UGraph(edges=[("a", "b", 1.0), ("c", "d", 1.0), ("b", "e", 2.0)])
        expected = oracle.sample_near_min_cuts(g, 2.0, 5, rng=1)
        for name in available_backends():
            with using_backend(name):
                assert sample_near_min_cuts(g, 2.0, 5, rng=1) == expected

    def test_above_dense_limit_raises(self):
        n = _DENSE_N_LIMIT + 1
        g = UGraph(edges=[(i, i + 1, 1.0) for i in range(n - 1)])
        with pytest.raises(GraphError, match="limited to"):
            karger_min_cut(g, trials=1, rng=0)

    def test_non_finite_weights_raise(self):
        g = UGraph(edges=[(0, 1, 1.0), (1, 2, float("inf"))])
        with pytest.raises(GraphError, match="finite"):
            karger_min_cut(g, trials=1, rng=0)
