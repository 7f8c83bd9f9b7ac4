"""Tests for the Theorem 1.2 decoder and Gap-Hamming game."""

import numpy as np
import pytest

from repro.comm.gap_hamming import GapCase, sample_gap_hamming_instance
from repro.errors import ParameterError
from repro.forall_lb.decoder import ForAllDecoder
from repro.forall_lb.encoder import ForAllEncoder
from repro.forall_lb.game import run_gap_hamming_game
from repro.forall_lb.params import ForAllParams
from repro.sketch.exact import ExactCutSketch
from repro.sketch.noisy import NoisyForAllSketch
from repro.utils.bitstrings import intersection_size

PARAMS = ForAllParams(inv_eps_sq=8, beta=1, num_groups=2)
SMALL = ForAllParams(inv_eps_sq=4, beta=1, num_groups=2)


def make_round(params, seed):
    inst = sample_gap_hamming_instance(
        params.num_strings, params.string_length, rng=seed
    )
    encoded = ForAllEncoder(params).encode(inst.strings)
    return inst, encoded


class TestDecoderMechanics:
    def test_estimate_block_weight_is_intersection_sum(self):
        """With an exact sketch, the fixed-part subtraction must leave
        exactly sum_{l in U} |N(l) cap T|."""
        inst, encoded = make_round(SMALL, 0)
        decoder = ForAllDecoder(SMALL)
        sketch = ExactCutSketch(encoded.graph)
        pair, _, cluster = SMALL.locate_string(inst.index)
        t_nodes = decoder._query_nodes(pair, cluster, inst.query)
        group = SMALL.group_nodes(pair)
        subset = frozenset(group[: len(group) // 2])
        estimate = decoder.estimate_block_weight(sketch, pair, subset, t_nodes)
        expected = 0.0
        cluster_nodes = SMALL.cluster_nodes(pair + 1, cluster)
        for left_index, left in enumerate(group):
            if left not in subset:
                continue
            q = pair * SMALL.strings_per_pair + left_index * SMALL.beta + cluster
            s = inst.strings[q]
            expected += sum(
                int(bit) for bit, v in zip(s, cluster_nodes) if v in t_nodes
            )
        assert estimate == pytest.approx(expected)

    def test_cut_side_shape(self):
        decoder = ForAllDecoder(PARAMS)
        group = PARAMS.group_nodes(0)
        subset = frozenset(group[: len(group) // 2])
        t_nodes = set(PARAMS.cluster_nodes(1, 0)[:2])
        side = decoder.cut_side(0, subset, t_nodes)
        assert subset <= side
        assert not (t_nodes & side)
        assert 0 < len(side) < PARAMS.num_nodes

    def test_query_string_length_checked(self):
        inst, encoded = make_round(SMALL, 1)
        decoder = ForAllDecoder(SMALL)
        sketch = ExactCutSketch(encoded.graph)
        with pytest.raises(ParameterError):
            decoder.decide(sketch, inst.index, np.ones(3, dtype=np.int8))

    def test_query_string_entries_checked(self):
        inst, encoded = make_round(SMALL, 1)
        decoder = ForAllDecoder(SMALL)
        sketch = ExactCutSketch(encoded.graph)
        with pytest.raises(ParameterError, match="0/1"):
            decoder.decide(sketch, inst.index, np.array([2, -1, 0, 7]))

    def test_enumeration_limit_validated(self):
        with pytest.raises(ParameterError):
            ForAllDecoder(SMALL, enumeration_limit=0)

    def test_sampling_fallback_engages(self):
        inst, encoded = make_round(PARAMS, 2)
        decoder = ForAllDecoder(PARAMS, enumeration_limit=10, rng=2)
        sketch = ExactCutSketch(encoded.graph)
        decision = decoder.decide(sketch, inst.index, inst.query)
        assert decision.subsets_examined == 10


class TestDecoderCorrectness:
    def test_exact_sketch_beats_two_thirds(self):
        wins = 0
        rounds = 30
        for seed in range(rounds):
            inst, encoded = make_round(PARAMS, seed)
            decoder = ForAllDecoder(PARAMS)
            decision = decoder.decide(
                ExactCutSketch(encoded.graph), inst.index, inst.query
            )
            wins += decision.case is inst.case
        assert wins / rounds > 2.0 / 3.0

    def test_valid_forall_sketch_beats_two_thirds(self):
        wins = 0
        rounds = 30
        for seed in range(rounds):
            inst, encoded = make_round(PARAMS, 100 + seed)
            decoder = ForAllDecoder(PARAMS)
            sketch = NoisyForAllSketch(
                encoded.graph, epsilon=0.02, seed=seed
            )
            decision = decoder.decide(sketch, inst.index, inst.query)
            wins += decision.case is inst.case
        assert wins / rounds > 2.0 / 3.0


class TestGame:
    def test_game_runs_and_reports(self):
        result = run_gap_hamming_game(
            SMALL, lambda g, r: ExactCutSketch(g), rounds=10, rng=0
        )
        assert 0.0 <= result.success_rate <= 1.0
        assert result.mean_sketch_bits > 0
        assert result.mean_queries >= 1

    def test_exact_game_success(self):
        result = run_gap_hamming_game(
            PARAMS, lambda g, r: ExactCutSketch(g), rounds=25, rng=1
        )
        assert result.summary.rate > 2.0 / 3.0

    def test_fano_monotone(self):
        good = run_gap_hamming_game(
            PARAMS, lambda g, r: ExactCutSketch(g), rounds=15, rng=2
        )
        coin = run_gap_hamming_game(
            PARAMS,
            # Useless sketch: always answers 0, decoder picks arbitrary Q.
            lambda g, r: _ZeroSketch(),
            rounds=15,
            rng=2,
        )
        assert good.fano_bits() >= coin.fano_bits()

    def test_rounds_validated(self):
        with pytest.raises(ParameterError):
            run_gap_hamming_game(SMALL, lambda g, r: ExactCutSketch(g), rounds=0)


class _ZeroSketch:
    """A degenerate sketch used as the chance baseline."""

    model = None
    epsilon = 1.0

    def query(self, side):
        return 0.0

    def size_bits(self):
        return 1
