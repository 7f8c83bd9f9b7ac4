"""Tests for the Theorem 1.1 encoder/decoder pair."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.foreach_lb.decoder import ForEachDecoder
from repro.foreach_lb.encoder import ForEachEncoder
from repro.foreach_lb.params import ForEachParams
from repro.graphs.balance import edgewise_balance_bound
from repro.graphs.connectivity import is_strongly_connected
from repro.sketch.exact import ExactCutSketch
from repro.sketch.noisy import NoisyForEachSketch
from repro.utils.bitstrings import random_signstring

PARAMS = ForEachParams(inv_eps=4, sqrt_beta=2, num_groups=2)
CHAINED = ForEachParams(inv_eps=4, sqrt_beta=1, num_groups=4)


@pytest.fixture(scope="module")
def encoded():
    encoder = ForEachEncoder(PARAMS)
    s = random_signstring(PARAMS.string_length, rng=11)
    return s, encoder.encode(s)


@pytest.fixture(scope="module")
def encoded_chained():
    encoder = ForEachEncoder(CHAINED)
    s = random_signstring(CHAINED.string_length, rng=12)
    return s, encoder.encode(s)


class TestEncoder:
    def test_graph_shape(self, encoded):
        _, eg = encoded
        assert eg.graph.num_nodes == PARAMS.num_nodes
        # Complete bipartite between the two groups, both directions.
        assert eg.graph.num_edges == 2 * PARAMS.group_size**2

    def test_strongly_connected(self, encoded):
        _, eg = encoded
        assert is_strongly_connected(eg.graph)

    def test_balance_is_o_beta_log_inv_eps(self, encoded):
        _, eg = encoded
        bound = edgewise_balance_bound(eg.graph)
        ceiling = PARAMS.beta * eg.weight_ceiling
        assert bound <= ceiling + 1e-9

    def test_forward_weights_in_declared_band(self, encoded):
        _, eg = encoded
        for u, v, w in eg.graph.edges():
            if u[0] == 0 and v[0] == 1:  # forward edges group0 -> group1
                assert eg.weight_floor - 1e-9 <= w <= eg.weight_ceiling + 1e-9

    def test_backward_weights_are_inverse_beta(self, encoded):
        _, eg = encoded
        for u, v, w in eg.graph.edges():
            if u[0] == 1 and v[0] == 0:
                assert w == pytest.approx(1.0 / PARAMS.beta)

    def test_deterministic(self):
        s = random_signstring(PARAMS.string_length, rng=13)
        encoder = ForEachEncoder(PARAMS)
        g1 = encoder.encode(s).graph
        g2 = encoder.encode(s).graph
        assert sorted(map(repr, g1.edges())) == sorted(map(repr, g2.edges()))

    def test_rejects_wrong_length(self):
        encoder = ForEachEncoder(PARAMS)
        with pytest.raises(ParameterError):
            encoder.encode(np.ones(3, dtype=np.int8))

    def test_rejects_non_signs(self):
        encoder = ForEachEncoder(PARAMS)
        with pytest.raises(ParameterError):
            encoder.encode(np.zeros(PARAMS.string_length, dtype=np.int8))

    def test_rejects_non_integral_entries(self):
        # Entries are checked as given: 1.5 and -1.9 must not truncate to
        # +1 and -1 on their way to the +-1 check.
        s = random_signstring(PARAMS.string_length, rng=13).astype(np.float64)
        s[0], s[-1] = 1.5, -1.9
        encoder = ForEachEncoder(PARAMS)
        with pytest.raises(ParameterError):
            encoder.encode(s)
        s[0], s[-1] = 1.0, -1.0
        encoder.encode(s)  # exact +-1 floats are signs

    def test_c1_must_be_positive(self):
        with pytest.raises(ParameterError):
            ForEachEncoder(PARAMS, c1=0.0)

    def test_chained_construction_has_all_pairs(self, encoded_chained):
        _, eg = encoded_chained
        k = CHAINED.group_size
        assert eg.graph.num_edges == 2 * (CHAINED.num_groups - 1) * k * k


class TestDecoderPlans:
    def test_four_queries_per_bit(self):
        decoder = ForEachDecoder(PARAMS)
        plans = decoder.query_plans(0)
        assert len(plans) == 4
        assert sorted(p.sign for p in plans) == [-1, -1, 1, 1]

    def test_cut_sides_are_proper(self, encoded):
        _, eg = encoded
        decoder = ForEachDecoder(PARAMS)
        for q in (0, PARAMS.string_length // 2, PARAMS.string_length - 1):
            for plan in decoder.query_plans(q):
                assert 0 < len(plan.side) < PARAMS.num_nodes

    def test_fixed_backward_matches_figure_1_accounting(self):
        """Analytic count of Figure 1's backward edges, Lemma 3.3 case."""
        decoder = ForEachDecoder(PARAMS)
        plan = decoder.query_plans(0)[0]
        k = PARAMS.group_size
        half = PARAMS.inv_eps // 2  # |A| = |B| = 1/(2 eps)
        expected = (k - half) * (k - half) / PARAMS.beta
        assert plan.fixed_backward == pytest.approx(expected)

    def test_boost_must_be_positive(self, encoded):
        _, eg = encoded
        decoder = ForEachDecoder(PARAMS)
        with pytest.raises(ParameterError):
            decoder.decode_bit(ExactCutSketch(eg.graph), 0, boost=0)


class TestDecoding:
    def test_exact_sketch_decodes_every_bit(self, encoded):
        s, eg = encoded
        decoder = ForEachDecoder(PARAMS)
        sketch = ExactCutSketch(eg.graph)
        for q in range(PARAMS.string_length):
            if PARAMS.locate_bit(q)[:3] in eg.failed_blocks:
                continue
            assert decoder.decode_bit(sketch, q) == int(s[q])

    def test_exact_sketch_decodes_chained_bits(self, encoded_chained):
        s, eg = encoded_chained
        decoder = ForEachDecoder(CHAINED)
        sketch = ExactCutSketch(eg.graph)
        for q in range(0, CHAINED.string_length, 5):
            if CHAINED.locate_bit(q)[:3] in eg.failed_blocks:
                continue
            assert decoder.decode_bit(sketch, q) == int(s[q])

    def test_inner_product_has_predicted_magnitude(self, encoded):
        """<w, M_t> = z_t / eps exactly (the proof's key identity)."""
        s, eg = encoded
        decoder = ForEachDecoder(PARAMS)
        sketch = ExactCutSketch(eg.graph)
        for q in (0, 7, PARAMS.string_length - 1):
            if PARAMS.locate_bit(q)[:3] in eg.failed_blocks:
                continue
            value = decoder.estimate_inner_product(sketch, q)
            assert value == pytest.approx(int(s[q]) * PARAMS.inv_eps)

    def test_small_noise_still_decodes(self, encoded):
        s, eg = encoded
        decoder = ForEachDecoder(PARAMS)
        # Noise at the proof's tolerance c2 * eps / ln(1/eps).
        tolerance = 0.05 * PARAMS.epsilon / math.log(PARAMS.inv_eps)
        sketch = NoisyForEachSketch(eg.graph, epsilon=tolerance, rng=3)
        correct = 0
        total = 0
        for q in range(PARAMS.string_length):
            if PARAMS.locate_bit(q)[:3] in eg.failed_blocks:
                continue
            total += 1
            if decoder.decode_bit(sketch, q) == int(s[q]):
                correct += 1
        assert correct == total

    def test_overwhelming_noise_breaks_decoding(self, encoded):
        """Failure injection: way past the threshold the decoder must
        drop to near-chance — this *is* the theorem's phase transition."""
        s, eg = encoded
        decoder = ForEachDecoder(PARAMS)
        sketch = NoisyForEachSketch(eg.graph, epsilon=0.9, rng=4)
        correct = sum(
            1
            for q in range(PARAMS.string_length)
            if decoder.decode_bit(sketch, q) == int(s[q])
        )
        assert correct < PARAMS.string_length  # no longer perfect

    def test_boosting_defeats_query_failures(self, encoded):
        s, eg = encoded
        decoder = ForEachDecoder(PARAMS)
        sketch = NoisyForEachSketch(
            eg.graph, epsilon=0.001, failure_prob=0.1, rng=5
        )
        correct = 0
        total = 0
        for q in range(PARAMS.string_length):
            if PARAMS.locate_bit(q)[:3] in eg.failed_blocks:
                continue
            total += 1
            if decoder.decode_bit(sketch, q, boost=9) == int(s[q]):
                correct += 1
        assert correct / total > 0.9
