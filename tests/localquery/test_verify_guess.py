"""Tests for VERIFY-GUESS (Lemma 5.8) and the Theorem 5.7 driver."""

import pytest

from repro.errors import ParameterError
from repro.graphs.generators import planted_min_cut_ugraph, random_connected_ugraph
from repro.graphs.mincut import stoer_wagner
from repro.graphs.ugraph import UGraph
from repro.localquery.mincut_query import estimate_min_cut
from repro.localquery.oracle import GraphOracle
from repro.localquery.verify_guess import fetch_degrees, verify_guess


@pytest.fixture(scope="module")
def planted():
    g, k = planted_min_cut_ugraph(20, 4, rng=0)
    return g, float(k)


class TestVerifyGuess:
    def test_accepts_guess_below_k(self, planted):
        g, k = planted
        oracle = GraphOracle(g)
        degrees = fetch_degrees(oracle)
        result = verify_guess(oracle, degrees, t=k / 2, eps=0.3, rng=1)
        assert result.accepted
        assert result.estimate == pytest.approx(k, rel=0.5)

    def test_rejects_guess_far_above_k(self, planted):
        g, k = planted
        oracle = GraphOracle(g)
        degrees = fetch_degrees(oracle)
        result = verify_guess(oracle, degrees, t=200 * k, eps=0.3, rng=2)
        assert not result.accepted
        assert result.estimate is None

    def test_small_guess_means_exact_sampling(self, planted):
        g, k = planted
        oracle = GraphOracle(g)
        degrees = fetch_degrees(oracle)
        result = verify_guess(oracle, degrees, t=1.0, eps=0.3, rng=3)
        assert result.keep_prob == 1.0
        assert result.estimate == pytest.approx(k)

    def test_queries_decrease_with_larger_guess(self, planted):
        g, _ = planted
        counts = []
        for t in (2.0, 8.0, 32.0):
            oracle = GraphOracle(g)
            degrees = fetch_degrees(oracle)
            result = verify_guess(oracle, degrees, t=t, eps=0.3, rng=4)
            counts.append(result.neighbor_queries)
        assert counts[0] >= counts[1] >= counts[2]

    def test_bad_params(self, planted):
        g, _ = planted
        oracle = GraphOracle(g)
        degrees = fetch_degrees(oracle)
        with pytest.raises(ParameterError):
            verify_guess(oracle, degrees, t=0, eps=0.3)
        with pytest.raises(ParameterError):
            verify_guess(oracle, degrees, t=1, eps=0.0)
        with pytest.raises(ParameterError):
            verify_guess(oracle, degrees, t=1, eps=0.3, constant=0)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"t": float("nan")}, "guess t"),
            ({"t": 1.0, "constant": float("nan")}, "constant"),
        ],
    )
    def test_nan_params_rejected_before_any_query(self, planted, kwargs, name):
        g, _ = planted
        oracle = GraphOracle(g)
        degrees = fetch_degrees(oracle)
        with pytest.raises(ParameterError, match=name):
            verify_guess(oracle, degrees, eps=0.3, rng=0, **kwargs)
        assert oracle.counter.neighbor_queries == 0

    def test_degree_map_must_cover_the_answers(self, planted):
        g, _ = planted
        oracle = GraphOracle(g)
        degrees = fetch_degrees(oracle)
        del degrees[g.nodes()[-1]]
        with pytest.raises(ParameterError, match="no entry for vertex"):
            verify_guess(oracle, degrees, t=1.0, eps=0.3, rng=0)

    def test_degree_map_required_nonempty(self):
        g = UGraph(nodes=["a"])
        oracle = GraphOracle(g)
        with pytest.raises(ParameterError):
            verify_guess(oracle, {"a": 0}, t=1, eps=0.3)


class TestEstimateMinCut:
    def test_recovers_planted_cut(self, planted):
        g, k = planted
        for variant in ("modified", "naive"):
            oracle = GraphOracle(g)
            estimate = estimate_min_cut(oracle, eps=0.25, rng=5, variant=variant)
            assert estimate.value == pytest.approx(k, rel=0.3)
            assert estimate.variant == variant
            assert estimate.total_queries > 0

    def test_random_graph_estimate(self):
        g = random_connected_ugraph(24, extra_edge_prob=0.5, rng=6)
        true_value, _ = stoer_wagner(g)
        oracle = GraphOracle(g)
        estimate = estimate_min_cut(oracle, eps=0.25, rng=7)
        assert estimate.value == pytest.approx(true_value, rel=0.5)

    def test_disconnected_graph_returns_zero(self):
        g = UGraph(edges=[("a", "b", 1.0), ("c", "d", 1.0)])
        # Make both components non-trivial so degrees exist.
        g.add_edge("a", "b2", 1.0)
        g.add_edge("c", "d2", 1.0)
        oracle = GraphOracle(g)
        estimate = estimate_min_cut(oracle, eps=0.3, rng=8)
        assert estimate.value == 0.0

    def test_query_accounting_matches_oracle(self, planted):
        g, _ = planted
        oracle = GraphOracle(g)
        estimate = estimate_min_cut(oracle, eps=0.25, rng=9)
        assert estimate.total_queries == oracle.counter.total
        assert estimate.degree_queries == g.num_nodes

    def test_bad_params(self, planted):
        g, _ = planted
        oracle = GraphOracle(g)
        with pytest.raises(ParameterError):
            estimate_min_cut(oracle, eps=0.0)
        with pytest.raises(ParameterError):
            estimate_min_cut(oracle, eps=0.2, variant="bogus")

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"search_accuracy": 0.0}, "search_accuracy"),
            ({"search_accuracy": float("nan")}, "search_accuracy"),
            ({"search_accuracy": 5.0}, "search_accuracy"),
            ({"acceptance_gap": float("nan")}, "acceptance_gap"),
            ({"acceptance_gap": 0.5}, "acceptance_gap"),
        ],
    )
    def test_bad_params_named_before_any_query(self, planted, kwargs, name):
        g, _ = planted
        oracle = GraphOracle(g)
        with pytest.raises(ParameterError, match=name):
            estimate_min_cut(oracle, eps=0.25, rng=0, **kwargs)
        assert oracle.counter.total == 0

    def test_search_accuracy_unused_by_naive_variant(self, planted):
        g, _ = planted
        oracle = GraphOracle(g)
        estimate = estimate_min_cut(
            oracle, eps=0.25, rng=0, variant="naive", search_accuracy=5.0
        )
        assert estimate.variant == "naive"

    def test_modified_never_slower_at_small_eps(self):
        """The Section 5.4 ablation in miniature: at small eps the
        modified variant uses no more queries than the naive one."""
        g, _ = planted_min_cut_ugraph(24, 8, rng=10)
        naive_queries = []
        modified_queries = []
        for seed in range(3):
            o1 = GraphOracle(g)
            estimate_min_cut(o1, eps=0.1, rng=seed, variant="naive")
            naive_queries.append(o1.counter.total)
            o2 = GraphOracle(g)
            estimate_min_cut(o2, eps=0.1, rng=seed, variant="modified")
            modified_queries.append(o2.counter.total)
        assert sum(modified_queries) <= sum(naive_queries)
