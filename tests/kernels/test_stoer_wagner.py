"""Stoer–Wagner kernel: python == native == the dict-of-dicts oracle.

The dense kernel keeps the first maximum of each scan and adds one row
per step, which is the dict formulation's tie-breaking and addition
order; so on every graph — unit weights, float weights, and the
tie-heavy complete graphs and cycles — both backends must return the
oracle's ``(value, side)`` exactly, not approximately.
"""

import math
from typing import Dict, FrozenSet, Set

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.csr import _DENSE_N_LIMIT
from repro.graphs.generators import planted_min_cut_ugraph
from repro.graphs.mincut import snapshot_min_cut_value, stoer_wagner
from repro.graphs.ugraph import UGraph
from repro.kernels import available_backends, reference, using_backend
from repro.localquery.verify_guess import _sample_snapshot

from tests.kernels.conftest import native_backend_or_skip


def dict_stoer_wagner(graph: UGraph):
    """The dict-of-dicts Stoer–Wagner that the kernel replaced (oracle)."""
    components = graph.connected_components()
    if len(components) > 1:
        return 0.0, frozenset(components[0])
    adj: Dict = {u: dict(graph.neighbors(u)) for u in graph.nodes()}
    groups: Dict = {u: {u} for u in graph.nodes()}
    best_value = math.inf
    best_side: FrozenSet = frozenset()
    while len(adj) > 1:
        start = next(iter(adj))
        in_a: Set = {start}
        weights = dict(adj[start].items())
        order = [start]
        while len(in_a) < len(adj):
            candidate = max(
                (v for v in adj if v not in in_a),
                key=lambda v: weights.get(v, 0.0),
            )
            order.append(candidate)
            in_a.add(candidate)
            for v, w in adj[candidate].items():
                if v not in in_a:
                    weights[v] = weights.get(v, 0.0) + w
        s, t = order[-2], order[-1]
        cut_of_phase = weights.get(t, 0.0)
        if cut_of_phase < best_value:
            best_value = cut_of_phase
            best_side = frozenset(groups[t])
        groups[s] |= groups[t]
        for v, w in adj[t].items():
            if v == s:
                continue
            adj[s][v] = adj[s].get(v, 0.0) + w
            adj[v][s] = adj[s][v]
            del adj[v][t]
        if t in adj[s]:
            del adj[s][t]
        del adj[t]
    return best_value, best_side


FAMILIES = ("unit", "float", "float_with_zeros", "sparse", "complete", "cycle")


def build(family: str, n: int, seed: int) -> UGraph:
    """A graph of ``family`` whose labels are inserted in shuffled order."""
    gen = np.random.default_rng(seed)
    graph = UGraph(nodes=[f"v{int(i)}" for i in gen.permutation(n)])
    if family == "complete":
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif family == "cycle":
        pairs = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
    else:
        prob = 0.08 if family == "sparse" else 0.35
        pairs = [(v, int(gen.integers(0, v))) for v in range(1, n)]
        pairs += [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if gen.random() < prob
        ]
        if family == "sparse":
            pairs = [p for p in pairs if gen.random() < 0.85]
    for u, v in pairs:
        if family in ("float", "float_with_zeros"):
            weight = float(gen.uniform(0.1, 5.0))
            if family == "float_with_zeros" and gen.random() < 0.3:
                weight = 0.0
        else:
            weight = 1.0
        graph.add_edge(f"v{u}", f"v{v}", weight, combine="add")
    return graph


class TestAgainstOracle:
    @given(
        st.sampled_from(FAMILIES),
        st.integers(2, 40),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_backends_return_the_oracle_cut(self, family, n, seed):
        graph = build(family, n, seed)
        expected = dict_stoer_wagner(graph)
        for backend in available_backends():
            with using_backend(backend):
                assert stoer_wagner(graph) == expected, backend


def kernels_agree(backend, matrix: np.ndarray):
    """Run both kernels on copies of ``matrix``; value, side and merged
    matrix must match bit for bit.  Returns ``(value, side)``."""
    n = matrix.shape[0]
    ref_w, nat_w = matrix.copy(), matrix.copy()
    ref_side = np.zeros(n, dtype=np.uint8)
    nat_side = np.zeros(n, dtype=np.uint8)
    ref_value = reference.stoer_wagner(ref_w, ref_side)
    nat_value = backend.stoer_wagner(nat_w, nat_side)
    assert np.float64(ref_value).tobytes() == np.float64(nat_value).tobytes()
    assert np.array_equal(ref_side, nat_side)
    assert ref_w.tobytes() == nat_w.tobytes()
    return ref_value, ref_side


def dense(family: str, n: int, seed: int) -> np.ndarray:
    """A symmetric ``(n, n)`` weight matrix of ``family``."""
    gen = np.random.default_rng(seed)
    if family == "complete":
        upper = np.triu(np.ones((n, n)), 1)
    elif family == "cycle":
        upper = np.zeros((n, n))
        upper[np.arange(n - 1), np.arange(1, n)] = 1.0
        upper[0, n - 1] = 1.0
    elif family == "float":
        keep = gen.random((n, n)) < 0.3
        upper = np.triu(gen.uniform(0.1, 5.0, size=(n, n)) * keep, 1)
    else:
        upper = np.triu(gen.integers(0, 4, size=(n, n)).astype(np.float64), 1)
    return upper + upper.T


def disconnected_sample(n: int, seed: int):
    """A VERIFY-GUESS-style sample of a planted graph that is disconnected.

    Each vertex draws its incident slots with a small probability, as
    VERIFY-GUESS does, and the pairs go through the same snapshot
    builder; one vertex draws nothing and is drawn by no one.
    """
    gen = np.random.default_rng(seed)
    graph, _ = planted_min_cut_ugraph(n // 2, 3, rng=seed)
    labels = list(graph.nodes())
    index = {v: i for i, v in enumerate(labels)}
    lonely = int(gen.integers(len(labels)))
    tails, heads = [], []
    for v in labels:
        for u in graph.neighbors(v):
            pair = (index[v], index[u])
            if lonely not in pair and gen.random() < 0.08:
                tails.append(pair[0])
                heads.append(pair[1])
    return _sample_snapshot(labels, tails, heads)


class TestKernel:
    @given(st.integers(2, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_kernels_agree_on_matrix_and_merges(self, n, seed):
        backend = native_backend_or_skip()
        _, side = kernels_agree(backend, dense("integer", n, seed))
        assert 0 < side.sum() < n

    def test_above_dense_limit_raises_without_allocating(self):
        n = _DENSE_N_LIMIT + 1
        graph = UGraph(edges=[(i, i + 1, 1.0) for i in range(n - 1)])
        with pytest.raises(GraphError, match="dense adjacency"):
            stoer_wagner(graph)


class TestWorkloadSizes:
    """python == native at the sizes the workloads solve (VERIFY-GUESS
    samples at n = 80, G_{x,y}, the coordinator's unions)."""

    @given(
        st.sampled_from(("complete", "cycle", "float", "integer")),
        st.integers(41, 200),
        st.integers(0, 2**32 - 1),
    )
    @example("complete", 200, 0)
    @example("cycle", 200, 0)
    @example("float", 200, 1)
    @settings(max_examples=30, deadline=None)
    def test_value_side_and_merged_matrix_match(self, family, n, seed):
        backend = native_backend_or_skip()
        kernels_agree(backend, dense(family, n, seed))

    @given(st.integers(41, 200), st.integers(0, 2**32 - 1))
    @example(80, 0)
    @example(200, 1)
    @settings(max_examples=10, deadline=None)
    def test_disconnected_samples_give_exactly_zero(self, n, seed):
        backend = native_backend_or_skip()
        sample = disconnected_sample(n, seed)
        value, _ = kernels_agree(backend, sample.adjacency_matrix())
        assert value == 0.0
        for name in ("python", "native"):
            with using_backend(name):
                assert snapshot_min_cut_value(sample) == 0.0
