"""Statistical acceptance tests for the randomized guarantees.

These tests check *probabilistic* claims by repetition with fixed
seeds: VERIFY-GUESS's accept/reject semantics, the Karger success
amplification, and the uniform sparsifier's unbiasedness.  Thresholds
are deliberately loose (they assert the direction of the effect, not
its exact rate) so the suite stays deterministic and robust.
"""

import pytest

from repro.graphs.generators import planted_min_cut_ugraph
from repro.graphs.mincut import stoer_wagner
from repro.graphs.ugraph import UGraph
from repro.localquery.oracle import GraphOracle
from repro.localquery.verify_guess import fetch_degrees, verify_guess
from repro.utils.rng import ensure_rng
from tests.graphs.dict_contraction import _one_contraction_run


class TestVerifyGuessSemantics:
    """Lemma 5.8's two-sided behaviour, measured over repetitions."""

    def setup_method(self):
        self.graph, self.k = planted_min_cut_ugraph(20, 4, rng=0)

    def _accept_rate(self, t, eps, trials=20):
        accepts = 0
        for seed in range(trials):
            oracle = GraphOracle(self.graph)
            degrees = fetch_degrees(oracle)
            result = verify_guess(oracle, degrees, t=t, eps=eps, rng=seed)
            accepts += result.accepted
        return accepts / trials

    def test_guesses_below_k_accept_reliably(self):
        assert self._accept_rate(t=self.k / 2, eps=0.3) >= 0.9

    def test_guesses_far_above_k_reject_reliably(self):
        assert self._accept_rate(t=100 * self.k, eps=0.3) <= 0.1

    def test_accepted_estimates_concentrate(self):
        values = []
        for seed in range(20):
            oracle = GraphOracle(self.graph)
            degrees = fetch_degrees(oracle)
            result = verify_guess(
                oracle, degrees, t=float(self.k), eps=0.25, rng=seed
            )
            if result.accepted:
                values.append(result.estimate)
        assert values, "no accepted runs"
        mean = sum(values) / len(values)
        assert mean == pytest.approx(self.k, rel=0.25)


class TestKargerAmplification:
    def test_single_run_often_fails_many_runs_rarely(self):
        graph, k = planted_min_cut_ugraph(10, 2, rng=1)
        gen = ensure_rng(2)
        single_hits = sum(
            1
            for _ in range(30)
            if _one_contraction_run(graph, gen)[0] == pytest.approx(float(k))
        )
        # A single contraction succeeds with probability ~2/(n(n-1));
        # it must be visibly unreliable...
        assert single_hits < 30
        # ...while the amplified estimator never misses on this seed set.
        from repro.graphs.mincut import karger_min_cut

        for seed in range(5):
            value, _ = karger_min_cut(graph, rng=seed)
            assert value == pytest.approx(float(k))


class TestUniformSamplingUnbiasedness:
    def test_cut_estimator_is_unbiased(self):
        from repro.sketch.sparsifier import uniform_sparsify

        g = UGraph(nodes=range(10))
        for u in range(10):
            for v in range(u + 1, 10):
                g.add_edge(u, v, 1.0)
        side = set(range(5))
        truth = g.cut_weight(side)
        for keep in (0.3, 0.7):
            total = 0.0
            trials = 80
            for seed in range(trials):
                sparse = uniform_sparsify(g, keep, rng=seed)
                total += sparse.cut_weight(side)
            assert total / trials == pytest.approx(truth, rel=0.15)
