"""repro — reproduction of "Tight Lower Bounds for Directed Cut
Sparsification and Distributed Min-Cut" (PODS 2024).

Subpackage map
--------------
``repro.graphs``      graph engine, flows, min cuts, balance, generators
``repro.linalg``      Hadamard matrices, the Lemma 3.2 tensor-row matrix
``repro.comm``        bit ledgers; Gap-Hamming and 2-SUM samplers
``repro.sketch``      cut-sketch interface, noisy oracles, sparsifiers
``repro.foreach_lb``  Theorem 1.1 game (for-each lower bound)
``repro.forall_lb``   Theorem 1.2 game (for-all lower bound)
``repro.localquery``  Section 5: oracles, G_{x,y}, VERIFY-GUESS, reduction
``repro.distributed`` distributed min-cut via sketches (the application)
``repro.experiments`` sweep/table harness shared by the benchmarks

The names most users need are re-exported here.
"""

from repro.graphs import (
    DiGraph,
    UGraph,
    brute_force_min_cut,
    directed_global_min_cut,
    exact_balance,
    is_beta_balanced,
    random_balanced_digraph,
    stoer_wagner,
)
from repro.sketch import (
    AGMSketch,
    BalancedDigraphSparsifier,
    CutSketch,
    ExactCutSketch,
    NoisyForAllSketch,
    NoisyForEachSketch,
    SketchModel,
    SparsifierSketch,
    SpectralSketch,
)
from repro.foreach_lb import ForEachDecoder, ForEachEncoder, ForEachParams, run_index_game
from repro.forall_lb import ForAllDecoder, ForAllEncoder, ForAllParams, run_gap_hamming_game
from repro.localquery import (
    CommOracle,
    GraphOracle,
    build_gxy,
    estimate_min_cut,
    solve_twosum_via_mincut,
    verify_guess,
)
from repro.distributed import Server, distributed_min_cut, partition_edges

__version__ = "1.0.0"

__all__ = [
    "AGMSketch",
    "BalancedDigraphSparsifier",
    "CommOracle",
    "CutSketch",
    "DiGraph",
    "ExactCutSketch",
    "ForAllDecoder",
    "ForAllEncoder",
    "ForAllParams",
    "ForEachDecoder",
    "ForEachEncoder",
    "ForEachParams",
    "GraphOracle",
    "NoisyForAllSketch",
    "NoisyForEachSketch",
    "Server",
    "SketchModel",
    "SparsifierSketch",
    "SpectralSketch",
    "UGraph",
    "brute_force_min_cut",
    "build_gxy",
    "directed_global_min_cut",
    "distributed_min_cut",
    "estimate_min_cut",
    "exact_balance",
    "is_beta_balanced",
    "partition_edges",
    "random_balanced_digraph",
    "run_gap_hamming_game",
    "run_index_game",
    "solve_twosum_via_mincut",
    "stoer_wagner",
    "verify_guess",
]
