"""Section 5: the local query model, G_{x,y}, VERIFY-GUESS, reductions."""

from repro.localquery.oracle import GraphOracle, LocalQueryOracle, QueryCounter
from repro.localquery.comm_oracle import CommOracle
from repro.localquery.gxy import (
    PART_A,
    PART_A_PRIME,
    PART_B,
    PART_B_PRIME,
    PARTS,
    GxyGraph,
    build_gxy,
    representative_figure_pairs,
)
from repro.localquery.verify_guess import (
    DEFAULT_SAMPLING_CONSTANT,
    VerifyGuessResult,
    fetch_degrees,
    verify_guess,
)
from repro.localquery.mincut_query import (
    DEFAULT_SEARCH_ACCURACY,
    MinCutEstimate,
    estimate_min_cut,
)
from repro.localquery.reduction import (
    MinCutAlgorithm,
    TwoSumViaMinCutResult,
    build_instance_graph,
    pad_to_square,
    solve_twosum_via_mincut,
)

__all__ = [
    "CommOracle",
    "DEFAULT_SAMPLING_CONSTANT",
    "DEFAULT_SEARCH_ACCURACY",
    "GraphOracle",
    "GxyGraph",
    "LocalQueryOracle",
    "MinCutAlgorithm",
    "MinCutEstimate",
    "PART_A",
    "PART_A_PRIME",
    "PART_B",
    "PART_B_PRIME",
    "PARTS",
    "QueryCounter",
    "TwoSumViaMinCutResult",
    "VerifyGuessResult",
    "build_gxy",
    "build_instance_graph",
    "estimate_min_cut",
    "fetch_degrees",
    "pad_to_square",
    "representative_figure_pairs",
    "solve_twosum_via_mincut",
    "verify_guess",
]
