"""VERIFY-GUESS on bulk queries and a CSR sample, against the dict version.

:mod:`tests.localquery.dict_verify_guess` keeps the body that sampled
one ``neighbor`` call at a time into a dict :class:`UGraph`.  The
library version must return the same :class:`VerifyGuessResult`, leave
its oracle in the same state (tallies per query kind; for
:class:`CommOracle` also the ledger's bits and charges and the index
pairs exchanged) and its generator at the same point, on every kernel
backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.csr import _DENSE_N_LIMIT
from repro.graphs.ugraph import UGraph
from repro.kernels import available_backends, registry, using_backend
from repro.localquery.comm_oracle import CommOracle
from repro.localquery.oracle import GraphOracle
from repro.localquery.verify_guess import fetch_degrees, verify_guess
from tests.localquery import dict_verify_guess as oracle


@pytest.fixture(autouse=True)
def _clean_kernel_state(monkeypatch):
    monkeypatch.delenv("REPRO_KERNELS", raising=False)
    registry._reset_for_tests()
    yield
    registry._reset_for_tests()


def _state(query_oracle):
    counter = query_oracle.counter
    state = [counter.degree_queries, counter.neighbor_queries, counter.pair_queries]
    if isinstance(query_oracle, CommOracle):
        ledger = query_oracle.ledger
        state += [ledger.total_bits, ledger.charges, set(query_oracle._known)]
    return state


def _run(fn, make, t, eps, constant, seed, calls=2):
    """``calls`` guesses on one oracle and generator: results or the
    error, then the oracle's state and the generator's next draw."""
    query_oracle = make()
    degrees = fetch_degrees(query_oracle)
    gen = np.random.default_rng(seed)
    results = []
    try:
        for k in range(calls):
            results.append(
                fn(query_oracle, degrees, t * 2.0**k, eps, rng=gen, constant=constant)
            )
    except GraphError as exc:
        results.append(str(exc))
    return results, _state(query_oracle), gen.random()


@st.composite
def _graph_oracles(draw):
    """GraphOracles on 2–24 shuffled labels, some isolated or disconnected."""
    n = draw(st.integers(2, 24))
    labels = draw(st.permutations([f"v{i}" for i in range(n)]))
    g = UGraph(nodes=labels)
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                g.add_edge(labels[i], labels[j], 1.0)
    return lambda: GraphOracle(g)


@st.composite
def _comm_oracles(draw):
    """CommOracles on G_{x,y} with side 1–6."""
    side = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(0, 2, side * side).astype(np.int8)
    y = (rng.random(side * side) < draw(st.sampled_from([0.1, 0.5, 0.9]))).astype(np.int8)
    return lambda: CommOracle(x, y)


class TestAgainstDictVerifyGuess:
    @given(
        st.one_of(_graph_oracles(), _comm_oracles()),
        # Small guesses clamp p at 1 (an exact sample); large ones leave
        # the sample sparse, often empty or disconnected.
        st.sampled_from([0.25, 1.0, 3.0, 10.0, 40.0, 400.0]),
        st.sampled_from([0.1, 0.3, 0.6, 0.9]),
        st.sampled_from([0.3, 2.0]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_results_state_and_stream(self, make, t, eps, constant, seed):
        expected = _run(oracle.verify_guess, make, t, eps, constant, seed)
        for name in available_backends():
            with using_backend(name):
                assert _run(verify_guess, make, t, eps, constant, seed) == expected

    def test_exact_sample_of_disconnected_graph(self):
        g = UGraph(nodes=range(6), edges=[(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
        expected = _run(oracle.verify_guess, lambda: GraphOracle(g), 0.1, 0.5, 2.0, 1)
        assert expected[0][0].keep_prob == 1.0
        assert not expected[0][0].accepted
        assert _run(verify_guess, lambda: GraphOracle(g), 0.1, 0.5, 2.0, 1) == expected


class TestAboveDenseLimit:
    """Past 2048 nodes a disconnected sample still reads 0.0; a connected
    one raises GraphError, after the same queries, as the dict version."""

    N = _DENSE_N_LIMIT + 2

    def test_disconnected_sample_rejects(self):
        g = UGraph(nodes=range(self.N), edges=[(i, i + 1, 1.0) for i in range(self.N - 2)])
        expected = _run(oracle.verify_guess, lambda: GraphOracle(g), 0.01, 0.5, 2.0, 3, 1)
        assert expected[0][0].keep_prob == 1.0 and not expected[0][0].accepted
        assert _run(verify_guess, lambda: GraphOracle(g), 0.01, 0.5, 2.0, 3, 1) == expected

    def test_connected_sample_raises(self):
        g = UGraph(edges=[(i, i + 1, 1.0) for i in range(self.N - 1)])
        expected = _run(oracle.verify_guess, lambda: GraphOracle(g), 0.01, 0.5, 2.0, 3, 1)
        assert "limited to" in expected[0][0]
        assert _run(verify_guess, lambda: GraphOracle(g), 0.01, 0.5, 2.0, 3, 1) == expected
