"""Native/python kernel parity: bit-identical flows, cuts, codewords.

The contract under test is strict equality, not approximation: the
native kernels mirror the reference operation for operation, so on the
integer-weighted constructions the reproduction runs, every float and
every set they produce must match exactly.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.csr import CSRGraph, ResidualNetwork
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import random_connected_ugraph
from repro.graphs.karger_stein import karger_stein_min_cut
from repro.graphs.maxflow import max_flow
from repro.graphs.mincut import directed_global_min_cut, stoer_wagner
from repro.graphs.ugraph import UGraph
from repro.kernels import reference, using_backend
from repro.linalg.hadamard import Lemma32Matrix

from tests.kernels.conftest import native_backend_or_skip


def _random_digraph(n, m, seed):
    gen = np.random.default_rng(seed)
    g = DiGraph(nodes=range(n))
    used = set()
    for _ in range(m):
        u, v = (int(x) for x in gen.integers(0, n, size=2))
        if u != v and (u, v) not in used:
            used.add((u, v))
            g.add_edge(u, v, float(gen.integers(1, 10)))
    return g


class TestDinicParity:
    @given(st.integers(3, 12), st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_flow_results_identical(self, n, seed):
        native_backend_or_skip()
        g = _random_digraph(n, 3 * n, seed)
        if g.num_edges == 0:
            return
        with using_backend("python"):
            a = max_flow(g, 0, n - 1)
        with using_backend("native"):
            b = max_flow(g, 0, n - 1)
        assert a.value == b.value
        assert a.source_side == b.source_side
        assert a.edge_flows == b.edge_flows

    @given(st.integers(4, 9), st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_directed_global_min_cut_identical(self, n, seed):
        native_backend_or_skip()
        g = _random_digraph(n, 4 * n, seed)
        try:
            with using_backend("python"):
                a = directed_global_min_cut(g)
            with using_backend("native"):
                b = directed_global_min_cut(g)
        except Exception:
            return  # disconnected instance; both paths raise alike
        assert a == b

    def test_kernel_level_phase_counts_match(self):
        backend = native_backend_or_skip()
        n = 12
        g = _random_digraph(n, 40, 3)
        csr = g.freeze()
        ref_net = ResidualNetwork(csr.tails, csr.heads, csr.weights, n)
        net = csr.residual_network()
        net.reset()
        total_ref, phases_ref = reference.dinic_solve(ref_net, 0, n - 1)
        total_nat, phases_nat = backend.dinic_solve(net, 0, n - 1)
        assert total_ref == total_nat
        assert phases_ref == phases_nat
        assert np.array_equal(ref_net.arc_flow, net.arc_flow)
        reference.residual_reachable(ref_net, 0)
        backend.residual_reachable(net, 0)
        assert np.array_equal(ref_net.seen, net.seen)


class TestContractionParity:
    @given(st.integers(4, 12), st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_karger_stein_identical_per_seed(self, n, seed):
        native_backend_or_skip()
        g = random_connected_ugraph(n, extra_edge_prob=0.4, rng=seed)
        with using_backend("python"):
            a = karger_stein_min_cut(g, rng=seed)
        with using_backend("native"):
            b = karger_stein_min_cut(g, rng=seed)
        assert a[0] == b[0]
        assert a[1] == b[1]
        sw, _ = stoer_wagner(g)
        assert a[0] >= sw - 1e-9

    @given(st.integers(3, 14), st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_contract_kernel_identical(self, n, seed):
        backend = native_backend_or_skip()
        gen = np.random.default_rng(seed)
        m = int(gen.integers(n, 4 * n))
        tails = gen.integers(0, n, size=m).astype(np.int64)
        heads = gen.integers(0, n, size=m).astype(np.int64)
        keep = tails != heads
        tails, heads = tails[keep], heads[keep]
        if tails.size == 0:
            return
        weights = gen.integers(1, 9, size=tails.size).astype(np.float64)
        uniforms = gen.random(n)
        p1 = np.arange(n, dtype=np.int64)
        p2 = p1.copy()
        r1 = reference.contract_to(tails, heads, weights, p1, n, 2, uniforms)
        r2 = backend.contract_to(tails, heads, weights, p2, n, 2, uniforms)
        assert r1 == r2
        assert np.array_equal(p1, p2)


class TestKargerRunsParity:
    @given(
        st.integers(2, 16), st.integers(0, 2**31), st.booleans(), st.booleans()
    )
    @settings(max_examples=25, deadline=None)
    def test_karger_runs_identical(self, n, seed, integral, compensated):
        backend = native_backend_or_skip()
        gen = np.random.default_rng(seed)
        weights = gen.integers(1, 9, size=3 * n) if integral else gen.random(3 * n)
        g = random_connected_ugraph(n, extra_edge_prob=0.5, rng=seed)
        for (u, v, _), w in zip(list(g.edges()), weights.tolist()):
            g.add_edge(u, v, w, combine="set")
        csr = g.freeze()
        runs = 4
        uniforms = gen.random(runs * (n - 2))
        out = []
        for kernels in (reference, backend):
            values = np.full(runs, -1.0)
            sides = np.zeros((runs, n), dtype=np.uint8)
            done = kernels.karger_runs(
                csr.indptr, csr.heads, csr.weights, uniforms, compensated,
                values, sides,
            )
            out.append((done, values, sides))
        (d1, v1, s1), (d2, v2, s2) = out
        assert d1 == d2 == runs
        assert v1.tobytes() == v2.tobytes()
        assert np.array_equal(s1, s2)
        assert s1[:, 0].all()  # node 0 always stays on the side

    def test_three_components_stop_alike(self):
        backend = native_backend_or_skip()
        csr = UGraph(edges=[(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)]).freeze()
        uniforms = np.full(2 * 4, 0.5)
        for kernels in (reference, backend):
            values = np.empty(2)
            sides = np.empty((2, 6), dtype=np.uint8)
            assert kernels.karger_runs(
                csr.indptr, csr.heads, csr.weights, uniforms, True, values, sides
            ) == 0


class TestHadamardParity:
    @pytest.mark.parametrize("side", [2, 4, 8, 16])
    def test_codewords_identical(self, side):
        native_backend_or_skip()
        m = Lemma32Matrix(side)
        gen = np.random.default_rng(side)
        signs = gen.choice([-1, 1], size=(6, m.num_rows)).astype(np.int8)
        with using_backend("python"):
            a = m.combine_many(signs)
        with using_backend("native"):
            b = m.combine_many(signs)
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("side", [2, 4, 8])
    def test_decode_identical_on_integer_inputs(self, side):
        """Exact decode parity on integer-valued vectors — the domain the
        encoder actually produces (codewords are exact int64)."""
        native_backend_or_skip()
        m = Lemma32Matrix(side)
        gen = np.random.default_rng(side + 100)
        x = gen.integers(-30, 30, size=m.row_length).astype(np.float64)
        with using_backend("python"):
            singles_py = [m.decode_coefficient(x, t) for t in range(m.num_rows)]
            all_py = m.decode_coefficients(x)
        with using_backend("native"):
            singles_nat = [
                m.decode_coefficient(x, t) for t in range(m.num_rows)
            ]
            all_nat = m.decode_coefficients(x)
        assert singles_py == singles_nat
        assert np.array_equal(all_py, all_nat)
        assert np.array_equal(np.asarray(singles_py), all_py)

    @pytest.mark.parametrize("side", [2, 4, 8])
    def test_roundtrip_recovers_signs_on_both_backends(self, side):
        m = Lemma32Matrix(side)
        gen = np.random.default_rng(side + 7)
        signs = gen.choice([-1, 1], size=m.num_rows).astype(np.int8)
        for name in ("python", "native"):
            if name == "native":
                native_backend_or_skip()
            with using_backend(name):
                x = m.combine(signs).astype(np.float64)
                decoded = m.decode_coefficients(x)
            assert np.array_equal(decoded, signs.astype(np.float64))


class TestResidualReuse:
    def test_repeated_flows_reuse_one_network(self):
        g = _random_digraph(8, 24, 5)
        csr = g.freeze()
        first = csr.max_flow(0, 7)
        net = csr.residual_network()
        assert net.solves == 1
        again = csr.max_flow(0, 7)
        assert csr.residual_network() is net  # same arrays, reset not rebuilt
        assert net.solves == 2
        assert first == again
        other = csr.max_flow(7, 0)  # different terminals, same network
        assert csr.residual_network() is net
        assert net.solves == 3
        assert other.value == csr.max_flow(7, 0).value

    def test_edge_flows_are_those_of_their_own_solve(self):
        g = _random_digraph(8, 24, 5)
        csr = g.freeze()
        first = csr.max_flow(0, 7)
        assert "edge_flows" not in vars(first)  # built on first read
        later = csr.max_flow(7, 0)  # resets and reuses the same network
        fresh = CSRGraph.from_digraph(g).max_flow(0, 7)
        assert later.edge_flows != fresh.edge_flows
        assert first.edge_flows == fresh.edge_flows
        assert first == fresh

    def test_unpickled_network_takes_its_own_addresses(self):
        g = _random_digraph(8, 24, 5)
        csr = g.freeze()
        before = csr.max_flow(0, 7)
        copy = pickle.loads(pickle.dumps(csr))
        net = copy.residual_network()
        assert net is not csr.residual_network()
        assert net.addresses == tuple(
            getattr(net, name).ctypes.data for name in ResidualNetwork.ARRAYS
        )
        assert net.addresses != csr.residual_network().addresses
        assert copy.max_flow(0, 7) == before
