"""Tests for repro.localquery.gxy — Figure 2 and Lemma 5.5."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.graphs.connectivity import edge_disjoint_path_count
from repro.graphs.mincut import stoer_wagner
from repro.localquery.gxy import (
    PART_A,
    PART_A_PRIME,
    PART_B,
    PART_B_PRIME,
    build_gxy,
    representative_figure_pairs,
)
from repro.utils.rng import ensure_rng


def planted_strings(side: int, intersections: int, seed: int):
    """Random x, y over side^2 positions with a planted intersection count."""
    gen = ensure_rng(seed)
    n = side * side
    x = gen.integers(0, 2, size=n).astype(np.int8)
    y = np.zeros(n, dtype=np.int8)
    # y is 1 only at planted positions => INT is exactly `intersections`.
    planted = gen.choice(n, size=intersections, replace=False)
    x[planted] = 1
    y[planted] = 1
    return x, y


class TestConstruction:
    def test_figure_2_example(self):
        """The paper's worked example: x = 000000100, y = 100010100."""
        x = np.array([0, 0, 0, 0, 0, 0, 1, 0, 0], dtype=np.int8)
        y = np.array([1, 0, 0, 0, 1, 0, 1, 0, 0], dtype=np.int8)
        gxy = build_gxy(x, y)
        assert gxy.intersection() == 1  # only position (3,1) = index 6
        # The red edges of Figure 2: (a_3, b'_1) and (b_3, a'_1) with
        # 1-based indexing; 0-based (2, 0).
        assert gxy.graph.has_edge((PART_A, 2), (PART_B_PRIME, 0))
        assert gxy.graph.has_edge((PART_B, 2), (PART_A_PRIME, 0))
        # And the corresponding green edges are absent.
        assert not gxy.graph.has_edge((PART_A, 2), (PART_A_PRIME, 0))

    def test_every_vertex_has_degree_ell(self):
        x, y = planted_strings(4, 2, seed=0)
        gxy = build_gxy(x, y)
        for v in gxy.graph.nodes():
            assert gxy.graph.degree(v) == 4

    def test_edge_count_is_2n(self):
        x, y = planted_strings(5, 1, seed=1)
        gxy = build_gxy(x, y)
        assert gxy.num_edges == 2 * 25
        assert gxy.num_vertices == 20

    def test_part_cut_value_is_2int(self):
        x, y = planted_strings(6, 3, seed=2)
        gxy = build_gxy(x, y)
        assert gxy.part_cut_value() == pytest.approx(2.0 * gxy.intersection())

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            build_gxy(np.zeros(3, dtype=np.int8), np.zeros(3, dtype=np.int8))
        with pytest.raises(ParameterError):
            build_gxy(np.zeros(4, dtype=np.int8), np.zeros(9, dtype=np.int8))
        with pytest.raises(ParameterError):
            build_gxy(
                np.array([2, 0, 0, 0], dtype=np.int8),
                np.zeros(4, dtype=np.int8),
            )


class TestLemma55:
    @given(st.sampled_from([4, 6, 9, 12]), st.integers(0, 3), st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_mincut_equals_2int_under_hypothesis(self, side, gamma, seed):
        if side < 3 * gamma:
            return
        x, y = planted_strings(side, gamma, seed)
        gxy = build_gxy(x, y)
        assert gxy.lemma_55_applicable()
        value, _ = stoer_wagner(gxy.graph)
        if gamma == 0:
            # Zero intersections disconnect A u A' from B u B'.
            assert value == 0.0
        else:
            # Unit weights: the identity holds exactly, not approximately.
            assert value == 2.0 * gamma

    def test_hypothesis_flag(self):
        x, y = planted_strings(3, 2, seed=3)  # sqrt(N)=3 < 3*2
        gxy = build_gxy(x, y)
        assert not gxy.lemma_55_applicable()

    @given(st.sampled_from([6, 9, 12]), st.integers(1, 2), st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_2gamma_connectivity_on_figure_pairs(self, side, gamma, seed):
        """Figures 3–6: every representative pair admits >= 2 gamma
        edge-disjoint paths."""
        x, y = planted_strings(side, gamma, seed)
        gxy = build_gxy(x, y)
        for u, v, _figure in representative_figure_pairs(gxy):
            assert edge_disjoint_path_count(gxy.graph, u, v) >= 2 * gamma

    def test_representative_pairs_cover_four_cases(self):
        x, y = planted_strings(4, 1, seed=4)
        gxy = build_gxy(x, y)
        pairs = representative_figure_pairs(gxy)
        assert len(pairs) == 4
        parts = {(u[0], v[0]) for u, v, _ in pairs}
        assert (PART_A, PART_A) in parts
        assert (PART_A, PART_A_PRIME) in parts
        assert (PART_A, PART_B_PRIME) in parts
        assert (PART_A, PART_B) in parts
