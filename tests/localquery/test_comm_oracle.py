"""Tests for repro.localquery.comm_oracle (the Lemma 5.6 simulation)."""

import numpy as np
import pytest

from repro.errors import OracleError, ParameterError
from repro.localquery.comm_oracle import CommOracle
from repro.localquery.gxy import (
    PART_A,
    PART_A_PRIME,
    PART_B,
    PART_B_PRIME,
    build_gxy,
)
from repro.utils.rng import ensure_rng


def strings(side=4, seed=0):
    gen = ensure_rng(seed)
    x = gen.integers(0, 2, size=side * side).astype(np.int8)
    y = gen.integers(0, 2, size=side * side).astype(np.int8)
    return x, y


class TestConsistencyWithGxy:
    def test_neighbor_answers_match_graph(self):
        x, y = strings()
        gxy = build_gxy(x, y)
        oracle = CommOracle(x, y)
        for v in oracle.vertices:
            for i in range(oracle.side):
                answer = oracle.neighbor(v, i)
                assert gxy.graph.has_edge(v, answer)

    def test_neighbor_slots_enumerate_all_neighbors(self):
        x, y = strings(seed=1)
        gxy = build_gxy(x, y)
        oracle = CommOracle(x, y)
        for v in oracle.vertices:
            answered = {oracle.neighbor(v, i) for i in range(oracle.side)}
            assert answered == set(gxy.graph.neighbors(v))

    def test_adjacency_matches_graph(self):
        x, y = strings(seed=2)
        gxy = build_gxy(x, y)
        oracle = CommOracle(x, y)
        vertices = oracle.vertices
        for u in vertices:
            for v in vertices:
                if u == v:
                    continue
                assert oracle.adjacent(u, v) == gxy.graph.has_edge(u, v)

    def test_degree_is_side(self):
        x, y = strings(seed=3)
        oracle = CommOracle(x, y)
        assert all(oracle.degree(v) == 4 for v in oracle.vertices)

    def test_neighbor_past_degree_is_none(self):
        x, y = strings()
        oracle = CommOracle(x, y)
        assert oracle.neighbor((PART_A, 0), 4) is None


class TestBitAccounting:
    def test_degree_queries_are_free(self):
        x, y = strings()
        oracle = CommOracle(x, y)
        for v in oracle.vertices:
            oracle.degree(v)
        assert oracle.bits_exchanged == 0

    def test_neighbor_query_costs_two_bits(self):
        x, y = strings()
        oracle = CommOracle(x, y)
        oracle.neighbor((PART_A, 0), 0)
        assert oracle.bits_exchanged == 2

    def test_repeat_queries_are_free(self):
        x, y = strings()
        oracle = CommOracle(x, y)
        oracle.neighbor((PART_A, 0), 1)
        oracle.neighbor((PART_A, 0), 1)
        oracle.adjacent((PART_A, 0), (PART_A_PRIME, 1))  # same index pair
        assert oracle.bits_exchanged == 2

    def test_never_adjacent_pairs_cost_nothing(self):
        x, y = strings()
        oracle = CommOracle(x, y)
        assert not oracle.adjacent((PART_A, 0), (PART_A, 1))
        assert not oracle.adjacent((PART_A, 0), (PART_B, 0))
        assert not oracle.adjacent((PART_A_PRIME, 0), (PART_B_PRIME, 1))
        assert oracle.bits_exchanged == 0

    def test_total_bits_bounded_by_2n(self):
        x, y = strings(seed=4)
        oracle = CommOracle(x, y)
        for v in oracle.vertices:
            for i in range(oracle.side):
                oracle.neighbor(v, i)
        # Only side^2 distinct index pairs exist.
        assert oracle.bits_exchanged == 2 * oracle.side**2

    def test_queries_counted_per_type(self):
        x, y = strings()
        oracle = CommOracle(x, y)
        oracle.degree((PART_A, 0))
        oracle.neighbor((PART_A, 0), 0)
        oracle.adjacent((PART_A, 0), (PART_B_PRIME, 0))
        assert oracle.counter.degree_queries == 1
        assert oracle.counter.neighbor_queries == 1
        assert oracle.counter.pair_queries == 1


class TestValidation:
    def test_oracle_isolated_from_mutation(self):
        x = np.zeros(4, dtype=np.int8)
        y = np.array([1, 0, 0, 0], dtype=np.int8)
        oracle = CommOracle(x, y)
        assert oracle.neighbor((PART_A, 0), 0) == (PART_A_PRIME, 0)
        x[0] = 1
        assert oracle.neighbor((PART_A, 0), 0) == (PART_A_PRIME, 0)

    def test_bad_strings(self):
        with pytest.raises(ParameterError):
            CommOracle(np.zeros(3, dtype=np.int8), np.zeros(3, dtype=np.int8))
        with pytest.raises(ParameterError):
            CommOracle(np.zeros(4, dtype=np.int8), np.zeros(9, dtype=np.int8))

    def test_bad_vertices(self):
        x, y = strings()
        oracle = CommOracle(x, y)
        with pytest.raises(OracleError):
            oracle.degree(("Z", 0))
        with pytest.raises(OracleError):
            oracle.neighbor((PART_A, 99), 0)
        with pytest.raises(OracleError):
            oracle.neighbor((PART_A, 0), -1)
