"""Bad game parameters raise ParameterError at every worker count."""

import pytest

from repro.errors import ParameterError
from repro.forall_lb.game import run_gap_hamming_game
from repro.forall_lb.params import ForAllParams
from repro.foreach_lb.game import run_index_game
from repro.foreach_lb.params import ForEachParams
from repro.sketch.exact import ExactCutSketch


def _exact(graph, _rng):
    return ExactCutSketch(graph)


@pytest.mark.parametrize("jobs", [1, 2])
def test_index_game_rejects_zero_boost(jobs):
    params = ForEachParams(inv_eps=4, sqrt_beta=1, num_groups=2)
    with pytest.raises(ParameterError, match="boost"):
        run_index_game(params, _exact, rounds=2, rng=0, boost=0, jobs=jobs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_gap_hamming_game_rejects_zero_enumeration_limit(jobs):
    params = ForAllParams(inv_eps_sq=4, beta=1, num_groups=2)
    with pytest.raises(ParameterError, match="enumeration_limit"):
        run_gap_hamming_game(
            params, _exact, rounds=2, rng=0, enumeration_limit=0, jobs=jobs
        )
