"""Graph substrate: data structures, flows, cuts, balance, generators."""

from repro.graphs.digraph import DiGraph
from repro.graphs.ugraph import UGraph, symmetrize
from repro.graphs.csr import (
    CSRFlowResult,
    CSRGraph,
    ResidualNetwork,
    batched_cut_weights,
)
from repro.graphs.cuts import (
    all_directed_cut_values,
    all_undirected_cut_values,
    brute_force_directed_min_cut,
    brute_force_min_cut,
    enumerate_cut_sides,
    max_cut_error,
    max_directed_cut_error,
)
from repro.graphs.maxflow import FlowResult, max_flow, max_flow_undirected, min_st_cut
from repro.graphs.mincut import (
    directed_global_min_cut,
    karger_min_cut,
    sample_near_min_cuts,
    stoer_wagner,
)
from repro.graphs.connectivity import (
    certify_pairwise_connectivity,
    edge_connectivity,
    edge_disjoint_path_count,
    is_gamma_connected,
    is_strongly_connected,
)
from repro.graphs.balance import (
    edgewise_balance_bound,
    exact_balance,
    is_beta_balanced,
    most_unbalanced_cut,
)
from repro.graphs.gomory_hu import GomoryHuTree, gomory_hu_tree
from repro.graphs.karger_stein import karger_stein_min_cut
from repro.graphs.generators import (
    complete_bipartite_digraph,
    cycle_digraph,
    planted_min_cut_ugraph,
    random_balanced_digraph,
    random_connected_ugraph,
    random_eulerian_digraph,
    random_regularish_ugraph,
)

__all__ = [
    "CSRFlowResult",
    "CSRGraph",
    "ResidualNetwork",
    "DiGraph",
    "FlowResult",
    "batched_cut_weights",
    "GomoryHuTree",
    "UGraph",
    "all_directed_cut_values",
    "all_undirected_cut_values",
    "brute_force_directed_min_cut",
    "brute_force_min_cut",
    "certify_pairwise_connectivity",
    "complete_bipartite_digraph",
    "cycle_digraph",
    "directed_global_min_cut",
    "edge_connectivity",
    "edge_disjoint_path_count",
    "edgewise_balance_bound",
    "enumerate_cut_sides",
    "exact_balance",
    "gomory_hu_tree",
    "is_beta_balanced",
    "is_gamma_connected",
    "is_strongly_connected",
    "karger_min_cut",
    "karger_stein_min_cut",
    "max_cut_error",
    "max_directed_cut_error",
    "max_flow",
    "max_flow_undirected",
    "min_st_cut",
    "most_unbalanced_cut",
    "planted_min_cut_ugraph",
    "random_balanced_digraph",
    "random_connected_ugraph",
    "random_eulerian_digraph",
    "random_regularish_ugraph",
    "sample_near_min_cuts",
    "stoer_wagner",
    "symmetrize",
]
