"""The paper's tables: one builder per experiment, run in registry order.

:data:`REGISTRY` maps each experiment id (``e1`` … ``e10``) to the one
function that defines its tables.  ``python -m repro.experiments.run_all``
prints them, ``make tables`` writes that output to ``docs/results.txt``,
and EXPERIMENTS.md quotes every measured number from that file by table
title.  Tables whose rows certify a theorem envelope declare
``bounds=`` (:mod:`repro.obs.bounds`), and each bound reads one of the
row's printed columns; the others only print.  Under ``run_all
--memory`` the space-certified tables (E1b, E2b, E3, E3b) add a column
of measured bytes and its space spec (:func:`_space_column`).

Every table is seeded, and its printed values are identical at any
``--jobs`` count and on either kernel backend.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Tuple

from repro.experiments.harness import Table, sweep


def _space_column(column: str, spec: str) -> Tuple[List[str], List[str]]:
    """``([column], [spec])`` while a memory profiler runs, else ``([], [])``.

    A space-certified table appends the first list to its columns and
    the second to its bounds, so it prints its runner's measured bytes
    and checks them against ``spec`` only under ``run_all --memory``
    (which registers the space specs); without a profiler it prints
    exactly as before.
    """
    from repro.obs import memory

    if memory.active() is None:
        return [], []
    return [column], [spec]


def _planted_gxy(side: int, gamma: int, seed: int):
    """``G_{x,y}`` on ``sqrt(N) = side`` with ``gamma`` planted intersections."""
    import numpy as np

    from repro.localquery.gxy import build_gxy
    from repro.utils.rng import ensure_rng

    gen = ensure_rng(seed)
    x = gen.integers(0, 2, size=side * side).astype(np.int8)
    y = np.zeros(side * side, dtype=np.int8)
    planted = gen.choice(side * side, size=gamma, replace=False)
    x[planted] = 1
    y[planted] = 1
    return build_gxy(x, y)


def _complete_ugraph(n: int):
    """``K_n`` with unit weights."""
    from repro.graphs.ugraph import UGraph

    g = UGraph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v, 1.0)
    return g


def _relative_errors(cut_values, query) -> List[float]:
    """``|query(S) - w(S)| / w(S)`` for every listed cut of positive weight."""
    return [
        abs(query(set(side)) - value) / value
        for side, value in cut_values
        if value > 0
    ]


def _e1_foreach() -> List[Table]:
    from repro.foreach_lb.game import run_index_game
    from repro.foreach_lb.params import ForEachParams
    from repro.sketch.exact import ExactCutSketch
    from repro.sketch.noisy import NoisyForEachSketch

    params = ForEachParams(inv_eps=4, sqrt_beta=1, num_groups=2)
    tolerance = params.epsilon / math.log(params.inv_eps)
    table = Table(
        title="E1 / Theorem 1.1 - Index game success vs sketch error",
        columns=["sketch_error", "success_rate", "fano_bits"],
    )
    for factor in (0.02, 1.0, 16.0):
        sketch_eps = min(0.95, factor * tolerance * 0.25)
        result = run_index_game(
            params,
            lambda g, r, e=sketch_eps: NoisyForEachSketch(g, epsilon=e, rng=r),
            rounds=25,
            rng=int(factor * 100),
        )
        table.add_row(
            sketch_error=sketch_eps,
            success_rate=result.success_rate,
            fano_bits=result.fano_bits(),
        )
    # Valid-sketch sweep certifying the Thm 1.1 envelope: a correct
    # (here exact) sketch of the construction graph must carry
    # Omega~(n sqrt(beta)/eps) bits at every epsilon on the sweep.
    bytes_column, space_bound = _space_column(
        "sketch_bytes", "thm11.space_bytes"
    )
    sweep_table = Table(
        title="E1b / Theorem 1.1 - exact sketch bits vs eps",
        columns=["eps", "n", "beta", "mean_bits", "envelope", *bytes_column],
        bounds=["thm11.sketch_bits", *space_bound],
    )
    for inv_eps in (2, 4, 8):
        p = ForEachParams(inv_eps=inv_eps, sqrt_beta=1, num_groups=2)
        result = run_index_game(
            p, lambda g, r: ExactCutSketch(g), rounds=3, rng=inv_eps
        )
        sweep_table.add_row(
            eps=p.epsilon,
            n=p.num_nodes,
            beta=p.beta,
            mean_bits=result.mean_sketch_bits,
            envelope=p.num_nodes * math.sqrt(p.beta) / p.epsilon,
            **dict.fromkeys(bytes_column, result.mean_sketch_bytes),
        )
    # Bit yield of a valid (well under tolerance) noisy sketch: the
    # Fano-converted recovered information against n sqrt(beta)/eps.
    yield_table = Table(
        title="E1c / Theorem 1.1 - recoverable bits vs n*sqrt(beta)/eps",
        columns=[
            "n", "beta", "inv_eps", "string_bits", "success_rate",
            "fano_bits", "predicted", "fano/predicted",
        ],
    )
    for inv_eps, sqrt_beta, groups in (
        (2, 1, 2), (2, 1, 4), (2, 2, 2), (4, 1, 2), (4, 2, 2), (8, 1, 2),
    ):
        p = ForEachParams(
            inv_eps=inv_eps, sqrt_beta=sqrt_beta, num_groups=groups
        )
        sketch_eps = 0.1 * p.epsilon / max(1.0, math.log(p.inv_eps))
        result = run_index_game(
            p,
            lambda g, r, e=sketch_eps: NoisyForEachSketch(g, epsilon=e, rng=r),
            rounds=25,
            rng=p.num_nodes,
        )
        predicted = p.num_nodes * p.sqrt_beta * p.inv_eps
        yield_table.add_row(
            n=p.num_nodes,
            beta=p.beta,
            inv_eps=p.inv_eps,
            string_bits=p.string_length,
            success_rate=result.success_rate,
            fano_bits=result.fano_bits(),
            predicted=predicted,
            **{"fano/predicted": result.fano_bits() / predicted},
        )
    return [table, sweep_table, yield_table]


def _e2_forall() -> List[Table]:
    from repro.forall_lb.game import run_gap_hamming_game
    from repro.forall_lb.params import ForAllParams
    from repro.sketch.exact import ExactCutSketch
    from repro.sketch.noisy import NoisyForAllSketch

    params = ForAllParams(inv_eps_sq=8, beta=1, num_groups=2)
    result = run_gap_hamming_game(
        params, lambda g, r: ExactCutSketch(g), rounds=20, rng=1
    )
    table = Table(
        title="E2 / Theorem 1.2 - Gap-Hamming game (exact sketch)",
        columns=["n", "total_bits", "success_rate", "fano_bits"],
    )
    table.add_row(
        n=params.num_nodes,
        total_bits=params.total_bits,
        success_rate=result.success_rate,
        fano_bits=result.fano_bits(),
    )
    # Valid-sketch sweep certifying the Thm 1.2 envelope over epsilon.
    bytes_column, space_bound = _space_column(
        "sketch_bytes", "thm12.space_bytes"
    )
    sweep_table = Table(
        title="E2b / Theorem 1.2 - exact sketch bits vs eps",
        columns=["eps", "n", "beta", "mean_bits", "envelope", *bytes_column],
        bounds=["thm12.sketch_bits", *space_bound],
    )
    for inv_eps_sq in (2, 4, 8):
        p = ForAllParams(inv_eps_sq=inv_eps_sq, beta=1, num_groups=2)
        res = run_gap_hamming_game(
            p, lambda g, r: ExactCutSketch(g), rounds=3, rng=inv_eps_sq
        )
        sweep_table.add_row(
            eps=p.epsilon,
            n=p.num_nodes,
            beta=p.beta,
            mean_bits=res.mean_sketch_bits,
            envelope=p.num_nodes * p.beta / (p.epsilon * p.epsilon),
            **dict.fromkeys(bytes_column, res.mean_sketch_bytes),
        )

    def game(p, sketch_eps, rng):
        """20 rounds against an exact (error 0) or noisy for-all sketch."""
        if sketch_eps == 0.0:
            factory = lambda g, r: ExactCutSketch(g)
        else:
            factory = lambda g, r: NoisyForAllSketch(
                g, epsilon=sketch_eps, seed=int(r.integers(1 << 30))
            )
        return run_gap_hamming_game(p, factory, rounds=20, rng=rng)

    validity = Table(
        title="E2c / Theorem 1.2 - Gap-Hamming game success vs for-all "
        "sketch error (n=%d, beta=%d, eps=%.3f)"
        % (params.num_nodes, params.beta, params.epsilon),
        columns=["sketch_error", "success_rate", "fano_bits", "subset_queries"],
    )
    for sketch_eps in (0.0, 0.25 * params.epsilon, params.epsilon):
        res = game(params, sketch_eps, rng=int(sketch_eps * 1000) + 1)
        validity.add_row(
            sketch_error=sketch_eps,
            success_rate=res.success_rate,
            fano_bits=res.fano_bits(),
            subset_queries=res.mean_queries,
        )
    yield_table = Table(
        title="E2d / Theorem 1.2 - encoded bits vs n*beta/eps^2",
        columns=[
            "n", "beta", "inv_eps_sq", "total_bits", "success_rate",
            "fano_bits", "predicted", "fano/predicted",
        ],
    )
    for inv_eps_sq, beta, groups in ((4, 1, 2), (4, 1, 3), (4, 2, 2), (8, 1, 2)):
        p = ForAllParams(inv_eps_sq=inv_eps_sq, beta=beta, num_groups=groups)
        res = game(p, 0.1 * p.epsilon, rng=p.num_nodes)
        predicted = p.num_nodes * p.beta * p.inv_eps_sq
        yield_table.add_row(
            n=p.num_nodes,
            beta=p.beta,
            inv_eps_sq=p.inv_eps_sq,
            total_bits=p.total_bits,
            success_rate=res.success_rate,
            fano_bits=res.fano_bits(),
            predicted=predicted,
            **{"fano/predicted": res.fano_bits() / predicted},
        )
    return [table, sweep_table, validity, yield_table]


def _e3_localquery() -> List[Table]:
    from repro.comm.twosum import sample_twosum_instance
    from repro.graphs.generators import planted_min_cut_ugraph
    from repro.localquery.mincut_query import estimate_min_cut
    from repro.localquery.oracle import GraphOracle
    from repro.localquery.reduction import solve_twosum_via_mincut
    from repro.localquery.verify_guess import fetch_degrees, verify_guess
    from repro.obs.memory import deep_sizeof

    graph, k = planted_min_cut_ugraph(40, 20, rng=20)
    m = graph.num_edges
    # Each configuration builds its own oracle; under --memory its
    # resident bytes, taken right after construction, are the row's
    # measured space.
    bytes_column, space_bound = _space_column(
        "oracle_bytes", "thm13.space_bytes"
    )

    def run_eps(eps: float) -> Dict[str, float]:
        oracle = GraphOracle(graph)
        oracle_bytes = deep_sizeof(oracle) if bytes_column else None
        degrees = fetch_degrees(oracle)
        result = verify_guess(
            oracle, degrees, t=float(k), eps=eps, rng=0, constant=0.5
        )
        return {
            "queries": result.neighbor_queries,
            "bound": min(2 * m, m / (eps * eps * k)),
            "oracle_bytes": oracle_bytes,
        }

    table = Table(
        title="E3 / Theorem 1.3 - VERIFY-GUESS queries vs min{2m, m/(eps^2 k)}",
        columns=["eps", "queries", "bound", *bytes_column],
        meta={"m": m, "k": k, "n": graph.num_nodes},
        bounds=["thm13.queries", *space_bound],
    )
    for row in sweep([{"eps": e} for e in (0.6, 0.45, 0.3, 0.2)], run_eps):
        table.add_row(
            eps=row["eps"],
            queries=row["queries"],
            bound=row["bound"],
            **dict.fromkeys(bytes_column, row["oracle_bytes"]),
        )

    # Same certification over the cut-size sweep: the min{2m, m/(eps^2 k)}
    # curve crosses over from the 2m clamp to the 1/k regime as k grows.
    def run_cut(cut_size: int) -> Dict[str, float]:
        g, planted_k = planted_min_cut_ugraph(40, cut_size, rng=cut_size)
        m_k, eps = g.num_edges, 0.45
        oracle = GraphOracle(g)
        oracle_bytes = deep_sizeof(oracle) if bytes_column else None
        degrees = fetch_degrees(oracle)
        result = verify_guess(
            oracle, degrees, t=float(planted_k), eps=eps, rng=0, constant=0.5
        )
        return {
            "k": planted_k,
            "m": m_k,
            "eps": eps,
            "queries": result.neighbor_queries,
            "bound": min(2 * m_k, m_k / (eps * eps * planted_k)),
            "oracle_bytes": oracle_bytes,
        }

    sweep_table = Table(
        title="E3b / Theorem 1.3 - VERIFY-GUESS queries vs k (eps = 0.45)",
        columns=["k", "m", "eps", "queries", "bound", *bytes_column],
        meta={"n": graph.num_nodes},
        bounds=[("thm13.queries", {"sweep": "k"}), *space_bound],
    )
    for row in sweep([{"cut_size": c} for c in (5, 10, 20, 38)], run_cut):
        sweep_table.add_row(
            k=row["k"],
            m=row["m"],
            eps=row["eps"],
            queries=row["queries"],
            bound=row["bound"],
            **dict.fromkeys(bytes_column, row["oracle_bytes"]),
        )

    # Lemma 5.6: the estimator run against the G_{x,y} CommOracle pays at
    # most 2 bits per local query, which carries the 2-SUM bound over.
    def algorithm(oracle, gen):
        return estimate_min_cut(oracle, eps=0.25, rng=gen).value

    transfer = Table(
        title="E3c / Lemma 5.6 - query-to-communication transfer on G_{x,y}",
        columns=[
            "pairs", "length", "queries", "bits", "bits<=2q",
            "disj_est", "disj_true", "within_budget",
        ],
    )
    for pairs, length, seed in ((16, 16, 0), (25, 25, 1), (36, 36, 2)):
        inst = sample_twosum_instance(
            pairs, length, intersecting_fraction=0.15, rng=seed
        )
        result = solve_twosum_via_mincut(inst, algorithm, rng=seed + 10)
        transfer.add_row(
            pairs=pairs,
            length=length,
            queries=result.queries,
            bits=result.bits_exchanged,
            **{"bits<=2q": result.bits_exchanged <= 2 * result.queries},
            disj_est=result.disj_estimate,
            disj_true=result.true_disj,
            within_budget=result.within_budget,
        )
    return [table, sweep_table, transfer]


def _e4_upperbound() -> List[Table]:
    from repro.graphs.generators import planted_min_cut_ugraph
    from repro.localquery.mincut_query import estimate_min_cut
    from repro.localquery.oracle import GraphOracle

    graph, k = planted_min_cut_ugraph(40, 20, rng=0)

    def run_eps(eps: float) -> Dict[str, float]:
        row = {}
        for variant in ("naive", "modified"):
            oracle = GraphOracle(graph)
            estimate = estimate_min_cut(
                oracle, eps=eps, rng=1, variant=variant,
                constant=0.5, search_accuracy=0.5,
            )
            row[f"{variant}_search"] = estimate.search_queries
        return row

    table = Table(
        title="E4 / Theorem 5.7 - naive vs modified search queries",
        columns=["eps", "naive_search", "modified_search"],
        meta={"m": graph.num_edges, "k": k, "n": graph.num_nodes},
        bounds=["thm57.search_queries"],
    )
    for row in sweep([{"eps": e} for e in (0.6, 0.45, 0.3)], run_eps):
        table.add_row(
            eps=row["eps"],
            naive_search=row["naive_search"],
            modified_search=row["modified_search"],
        )

    # The modified search must not cost accuracy: worst relative error of
    # either variant's estimate over three seeds, on two planted graphs.
    quality = Table(
        title="E4b / Theorem 5.7 - estimate error, naive vs modified "
        "(worst of 3 seeds)",
        columns=["k", "eps", "naive_rel_err", "modified_rel_err"],
    )
    for cluster, planted_k in ((32, 8), (40, 20)):
        g, _ = planted_min_cut_ugraph(cluster, planted_k, rng=planted_k)
        for eps in (0.4, 0.2):
            worst = {}
            for variant in ("naive", "modified"):
                errors = []
                for seed in (5, 6, 7):
                    estimate = estimate_min_cut(
                        GraphOracle(g), eps=eps, rng=seed, variant=variant,
                        constant=0.5, search_accuracy=0.5,
                    )
                    errors.append(abs(estimate.value - planted_k) / planted_k)
                worst[variant] = max(errors)
            quality.add_row(
                k=planted_k,
                eps=eps,
                naive_rel_err=worst["naive"],
                modified_rel_err=worst["modified"],
            )
    return [table, quality]


def _e5_figure1() -> List[Table]:
    from repro.foreach_lb.decoder import ForEachDecoder
    from repro.foreach_lb.encoder import ForEachEncoder
    from repro.foreach_lb.params import ForEachParams
    from repro.graphs.balance import edgewise_balance_bound
    from repro.graphs.connectivity import is_strongly_connected
    from repro.utils.bitstrings import random_signstring

    def run_config(inv_eps: int, sqrt_beta: int) -> Dict[str, float]:
        params = ForEachParams(inv_eps=inv_eps, sqrt_beta=sqrt_beta)
        encoder = ForEachEncoder(params)
        s = random_signstring(params.string_length, rng=3)
        encoded = encoder.encode(s)
        plan = ForEachDecoder(params).query_plans(0)[0]
        total = encoded.graph.cut_weight(plan.side)
        return {
            "forward_w": total - plan.fixed_backward,
            "backward_w": plan.fixed_backward,
        }

    table = Table(
        title="E5 / Figure 1 - decoder cut decomposition",
        columns=["inv_eps", "sqrt_beta", "forward_w", "backward_w"],
    )
    configs = [
        {"inv_eps": a, "sqrt_beta": b} for a, b in ((4, 1), (8, 1), (8, 2))
    ]
    for row in sweep(configs, run_config):
        table.add_row(
            inv_eps=row["inv_eps"],
            sqrt_beta=row["sqrt_beta"],
            forward_w=row["forward_w"],
            backward_w=row["backward_w"],
        )

    # The encoded graphs meet their declared O(beta log(1/eps)) balance:
    # the edgewise bound over beta times the weight ceiling stays <= 1.
    balance = Table(
        title="E5b / Figure 1 - graphs are O(beta log(1/eps))-balanced",
        columns=["inv_eps", "sqrt_beta", "beta", "edgewise_bound",
                 "bound/(beta*3c1*ln(1/eps))", "strongly_connected"],
    )
    for inv_eps, sqrt_beta in ((4, 1), (4, 2), (8, 1)):
        params = ForEachParams(
            inv_eps=inv_eps, sqrt_beta=sqrt_beta, num_groups=2
        )
        encoded = ForEachEncoder(params).encode(
            random_signstring(params.string_length, rng=99)
        )
        bound = edgewise_balance_bound(encoded.graph)
        balance.add_row(
            inv_eps=inv_eps,
            sqrt_beta=sqrt_beta,
            beta=params.beta,
            edgewise_bound=bound,
            **{
                "bound/(beta*3c1*ln(1/eps))":
                    bound / (params.beta * encoded.weight_ceiling)
            },
            strongly_connected=is_strongly_connected(encoded.graph),
        )
    return [table, balance]


def _e6_figure2() -> List[Table]:
    from repro.graphs.gomory_hu import gomory_hu_tree
    from repro.graphs.mincut import karger_min_cut, stoer_wagner

    def run_config(side: int, gamma: int, seed: int) -> Dict[str, float]:
        gxy = _planted_gxy(side, gamma, seed)
        return {
            "INT": gxy.intersection(),
            "mincut": stoer_wagner(gxy.graph)[0],
            "witness": gxy.part_cut_value(),
        }

    table = Table(
        title="E6 / Figure 2 + Lemma 5.5 - MINCUT = 2*INT",
        columns=["sqrt_N", "INT", "mincut", "witness"],
    )
    configs = [
        {"side": side, "gamma": gamma, "seed": seed}
        for side, gamma, seed in ((6, 1, 0), (9, 2, 1), (12, 4, 2))
    ]
    for row in sweep(configs, run_config):
        table.add_row(
            sqrt_N=row["side"],
            INT=row["INT"],
            mincut=row["mincut"],
            witness=row["witness"],
        )

    agreement = Table(
        title="E6b / Lemma 5.5 - MINCUT(G_{x,y}) = 2*INT(x,y) "
        "(3 algorithms agree)",
        columns=[
            "sqrt_N", "INT", "2INT", "stoer_wagner", "karger",
            "gomory_hu", "witness_cut", "hypothesis",
        ],
    )
    for side, gamma, seed in (
        (6, 1, 0), (6, 2, 1), (9, 2, 2), (9, 3, 3), (12, 4, 4), (12, 2, 5),
    ):
        gxy = _planted_gxy(side, gamma, seed)
        agreement.add_row(
            sqrt_N=side,
            INT=gxy.intersection(),
            **{"2INT": 2 * gxy.intersection()},
            stoer_wagner=stoer_wagner(gxy.graph)[0],
            karger=karger_min_cut(gxy.graph, trials=300, rng=seed)[0],
            gomory_hu=gomory_hu_tree(gxy.graph).global_min_cut_value(),
            witness_cut=gxy.part_cut_value(),
            hypothesis=gxy.lemma_55_applicable(),
        )

    # Below sqrt(N) >= 3 INT the identity may fail: the hypothesis is
    # not vacuous at these sizes.
    boundary = Table(
        title="E6c / Lemma 5.5 hypothesis boundary - identity vs planted INT",
        columns=["sqrt_N", "INT", "hypothesis_holds", "mincut", "2INT",
                 "identity_holds"],
    )
    for gamma in (1, 2, 3, 4, 5):
        gxy = _planted_gxy(6, gamma, seed=10 + gamma)
        value, _ = stoer_wagner(gxy.graph)
        boundary.add_row(
            sqrt_N=6,
            INT=gxy.intersection(),
            hypothesis_holds=gxy.lemma_55_applicable(),
            mincut=value,
            **{"2INT": 2 * gxy.intersection()},
            identity_holds=bool(abs(value - 2 * gxy.intersection()) < 1e-9),
        )
    return [table, agreement, boundary]


def _e7_figures36() -> List[Table]:
    from repro.graphs.connectivity import edge_disjoint_path_count
    from repro.localquery.gxy import (
        PART_A,
        PART_A_PRIME,
        PART_B,
        PART_B_PRIME,
        representative_figure_pairs,
    )

    gxy = _planted_gxy(9, 3, 4)
    pairs = list(representative_figure_pairs(gxy))

    def run_pair(index: int) -> Dict[str, float]:
        u, v, figure = pairs[index]
        return {
            "figure": figure,
            "paths": edge_disjoint_path_count(gxy.graph, u, v),
            "2gamma": 2 * gxy.intersection(),
        }

    table = Table(
        title="E7 / Figures 3-6 - edge-disjoint paths per representative pair",
        columns=["figure", "paths", "2gamma"],
    )
    for row in sweep([{"index": i} for i in range(len(pairs))], run_pair):
        table.add_row(
            figure=row["figure"],
            paths=row["paths"],
            **{"2gamma": row["2gamma"]},
        )

    # Menger over every pair of every case, not just the representatives.
    cases = (
        ("figure3: u,v in A", PART_A, PART_A),
        ("figure4: u in A, v in A'", PART_A, PART_A_PRIME),
        ("figures5-6: u in A, v in B'", PART_A, PART_B_PRIME),
        ("case4: u in A, v in B", PART_A, PART_B),
    )
    every_pair = Table(
        title="E7b / Figures 3-6 - minimum edge-disjoint paths per case "
        "vs 2*gamma",
        columns=["case", "sqrt_N", "gamma", "min_paths", "2gamma", "certified"],
    )
    for side, gamma, seed in ((6, 1, 0), (6, 2, 1), (9, 3, 2)):
        planted = _planted_gxy(side, gamma, seed)
        for label, part_u, part_v in cases:
            minimum = min(
                edge_disjoint_path_count(planted.graph, u, v)
                for u in planted.part(part_u)
                for v in planted.part(part_v)
                if u != v
            )
            every_pair.add_row(
                case=label,
                sqrt_N=side,
                gamma=gamma,
                min_paths=minimum,
                **{"2gamma": 2 * gamma},
                certified=bool(minimum >= 2 * gamma),
            )
    return [table, every_pair]


def _e8_sparsifier() -> List[Table]:
    import numpy as np

    from repro.graphs.cuts import (
        all_directed_cut_values,
        all_undirected_cut_values,
    )
    from repro.graphs.generators import random_balanced_digraph
    from repro.sketch.directed import BalancedDigraphSparsifier
    from repro.sketch.sparsifier import SparsifierSketch
    from repro.sketch.spectral import SpectralSketch

    g = _complete_ugraph(16)

    def run_eps(eps: float) -> Dict[str, float]:
        sketch = SparsifierSketch.from_undirected(
            g, epsilon=eps, rng=17, constant=0.4
        )
        return {"kept_edges": sketch.sparse_graph.num_edges // 2}

    table = Table(
        title="E8 - sparsifier kept edges vs eps (K16)",
        columns=["eps", "kept_edges"],
    )
    for row in sweep([{"eps": e} for e in (0.9, 0.6, 0.4, 0.25)], run_eps):
        table.add_row(eps=row["eps"], kept_edges=row["kept_edges"])

    # Errors over every cut of K16 (every directed cut in E8b), at the
    # deliberately small oversampling constant 0.4.
    cuts = list(all_undirected_cut_values(g))
    undirected = Table(
        title="E8a - undirected sparsifier: kept edges and worst cut error "
        "vs eps (K16, m=%d)" % g.num_edges,
        columns=["eps", "kept_edges", "kept/m", "bits",
                 "mean_cut_error", "worst_cut_error"],
    )
    for eps in (0.9, 0.6, 0.4, 0.25):
        sketch = SparsifierSketch.from_undirected(
            g, epsilon=eps, rng=17, constant=0.4, connectivity="exact"
        )
        kept = sketch.sparse_graph.num_edges // 2  # stored once per direction
        errors = _relative_errors(cuts, sketch.query)
        undirected.add_row(
            eps=eps,
            kept_edges=kept,
            **{"kept/m": kept / g.num_edges},
            bits=sketch.size_bits(),
            mean_cut_error=float(np.mean(errors)),
            worst_cut_error=max(errors),
        )

    # The directed design pays undirected accuracy eps/(1+beta).
    balance_tax = Table(
        title="E8b - balanced digraph sparsifier: size vs beta at fixed eps",
        columns=["beta", "eps", "kept_pairs", "m_pairs", "kept/m",
                 "mean_dir_error", "worst_dir_error"],
    )
    for beta in (1.0, 2.0, 4.0):
        d = random_balanced_digraph(14, beta=beta, density=0.9, rng=int(beta))
        sketch = BalancedDigraphSparsifier(
            d, epsilon=0.8, beta=beta, rng=int(beta), constant=0.4
        )
        kept_pairs = len(
            {frozenset((u, v)) for u, v, _ in sketch.sparse_graph.edges()}
        )
        m_pairs = len({frozenset((u, v)) for u, v, _ in d.edges()})
        errors = _relative_errors(all_directed_cut_values(d), sketch.query)
        balance_tax.add_row(
            beta=beta,
            eps=0.8,
            kept_pairs=kept_pairs,
            m_pairs=m_pairs,
            **{"kept/m": kept_pairs / m_pairs},
            mean_dir_error=float(np.mean(errors)),
            worst_dir_error=max(errors),
        )

    # Effective-resistance ([SS11]) sampling vs plain cut sampling at
    # equal design eps.
    spectral_table = Table(
        title="E8c - spectral ([SS11]) vs cut sparsifier on K16",
        columns=["eps", "cut_kept", "spectral_kept",
                 "cut_mean_err", "spectral_mean_err"],
    )
    for eps in (0.9, 0.6, 0.4):
        cut_sketch = SparsifierSketch.from_undirected(
            g, epsilon=eps, rng=21, constant=0.4, connectivity="exact"
        )
        spectral = SpectralSketch(g, epsilon=eps, rng=21, constant=0.4)
        spectral_table.add_row(
            eps=eps,
            cut_kept=cut_sketch.sparse_graph.num_edges // 2,
            spectral_kept=spectral.sparse_graph.num_edges,
            cut_mean_err=float(np.mean(_relative_errors(cuts, cut_sketch.query))),
            spectral_mean_err=float(
                np.mean(_relative_errors(cuts, spectral.query))
            ),
        )
    return [table, undirected, balance_tax, spectral_table]


def _e9_distributed() -> List[Table]:
    from repro.distributed.coordinator import distributed_min_cut
    from repro.distributed.server import partition_edges
    from repro.graphs.mincut import stoer_wagner

    g = _complete_ugraph(36)
    servers = partition_edges(g, 2, rng=1)

    def run_config(eps: float, strategy: str) -> Dict[str, float]:
        result = distributed_min_cut(
            servers, epsilon=eps, strategy=strategy, rng=7,
            sampling_constant=0.3,
        )
        return {"total_bits": result.total_bits, "estimate": result.value}

    table = Table(
        title="E9 - distributed min-cut communication vs eps",
        columns=["eps", "strategy", "total_bits", "estimate"],
    )
    configs = [
        {"eps": eps, "strategy": strategy}
        for eps in (0.4, 0.2)
        for strategy in ("forall_only", "hybrid")
    ]
    for row in sweep(configs, run_config):
        table.add_row(
            eps=row["eps"],
            strategy=row["strategy"],
            total_bits=row["total_bits"],
            estimate=row["estimate"],
        )

    true_value, _ = stoer_wagner(g)
    small_eps = Table(
        title="E9b - hybrid strategy accuracy at small eps",
        columns=["eps", "estimate", "true", "rel_err", "candidates"],
    )
    for eps in (0.1, 0.05, 0.02):
        result = distributed_min_cut(
            servers, epsilon=eps, strategy="hybrid", rng=9,
            sampling_constant=0.3,
        )
        small_eps.add_row(
            eps=eps,
            estimate=result.value,
            true=true_value,
            rel_err=abs(result.value - true_value) / true_value,
            candidates=result.candidates_scored,
        )
    return [table, small_eps]


def _e10_agm() -> List[Table]:
    from repro.graphs.connectivity import edge_connectivity
    from repro.graphs.generators import random_regularish_ugraph
    from repro.sketch.agm import (
        AGMSketch,
        certify_k_connectivity,
        sketch_spanning_forest,
    )
    from repro.sketch.serialization import graph_size_bits

    footprint = Table(
        title="E10a / [AGM12] - sketch words vs edge count (n=24 fixed)",
        columns=["m", "sketch_words", "edgelist_bits", "forest_ok"],
    )
    for degree in (4, 8, 16, 22):
        g = random_regularish_ugraph(24, degree, rng=degree)
        sketch = AGMSketch.of_graph(g, seed=degree)
        forest = sketch_spanning_forest(sketch)
        footprint.add_row(
            m=g.num_edges,
            sketch_words=sketch.size_words(),
            edgelist_bits=graph_size_bits(g),
            forest_ok=bool(
                forest.is_connected() and forest.num_edges == g.num_nodes - 1
            ),
        )

    certificate = Table(
        title="E10b / [AGM12] - forest-peeling connectivity certificate",
        columns=["n", "degree", "true_conn", "k", "certified", "exact"],
    )
    for n, degree, k, seed in ((10, 6, 6, 0), (12, 6, 3, 1), (14, 8, 8, 2)):
        g = random_regularish_ugraph(n, degree, rng=seed)
        true_conn = edge_connectivity(g)
        certified = certify_k_connectivity(g, k=k, seed=seed)
        certificate.add_row(
            n=n,
            degree=degree,
            true_conn=true_conn,
            k=k,
            certified=certified,
            exact=bool(certified == min(k, true_conn)),
        )
    return [footprint, certificate]


#: Experiment id -> the builder of its tables, in run order.
REGISTRY: Dict[str, Callable[[], List[Table]]] = {
    "e1": _e1_foreach,
    "e2": _e2_forall,
    "e3": _e3_localquery,
    "e4": _e4_upperbound,
    "e5": _e5_figure1,
    "e6": _e6_figure2,
    "e7": _e7_figures36,
    "e8": _e8_sparsifier,
    "e9": _e9_distributed,
    "e10": _e10_agm,
}
