"""The batch workloads: ``games`` and ``mincut``.

Both call ``repro``'s public API on inputs generated from the seed
before the clock starts, and repeat one fixed *pass* of operations: the
timed window runs whole passes until ``--seconds`` have elapsed, and the
traced run runs exactly one pass, so its work counts repeat exactly for
a fixed seed.  Operations look their entry points up through the
package modules at call time, so the traced run sees the wrapped names.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import repro.comm.twosum as twosum
import repro.distributed as distributed
import repro.forall_lb as forall_lb
import repro.foreach_lb as foreach_lb
import repro.graphs.connectivity as connectivity
import repro.graphs.generators as generators
import repro.graphs.mincut as mincut
import repro.localquery as localquery
import repro.sketch as sketch
from repro.graphs.ugraph import UGraph
from repro.kernels import get_backend

from common import (
    derive_seeds,
    digest,
    host_cpu_times,
    join_pool_workers,
    median,
    percentile,
    steal_fraction,
)
from tracer import PoolAccounting, Tracer, install_layers, layer_rows

#: Worker count of the ``games`` pool (the machine this was sized on has 2).
GAMES_JOBS = 2


@dataclass
class Op:
    """One timed operation: ``run()`` returns a result ``check`` inspects."""

    kind: str
    ops: int
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


@dataclass
class Window:
    """What one timed stretch of whole passes measured."""

    wall_s: float
    cpu_s: float
    ops: int
    attempted: int
    failed: int
    latencies_ms: List[float]
    errors: List[str]  # ops that raised: counted as failed
    problems: List[str]  # failed output checks: fail the run
    steal: float
    #: Per pass: ops_per_s and latency_p50_ms / _p90_ms / _p99_ms.
    segments: List[Dict[str, float]]

    def median_of(self, name: str) -> float:
        """A metric's median over passes, which keeps one slow pass (host
        CPU steal comes in bursts) from moving the run's figure."""
        return median([segment[name] for segment in self.segments])


# ----------------------------------------------------------------------
# games: Thm 1.1 Index game and Thm 1.2 Gap-Hamming game at jobs 2
# ----------------------------------------------------------------------

INDEX_PARAMS = dict(inv_eps=16, sqrt_beta=2, num_groups=4)  # n=128, 2,700-bit strings
#: Per pass: two Index games per sketch, 8 rounds each (one round per pool
#: chunk, so each round is timed alone), and one Gap-Hamming game.  Index
#: rounds are ~90% of a pass, so the median round is an Index round even
#: though round times under two workers are bimodal; the Gap-Hamming
#: rounds, ~10x slower, set the tail.
INDEX_ROUNDS = 8
INDEX_GAMES = 2  # per sketch
GAP_HAMMING = ((16, 4),)  # (inv_eps_sq, rounds per call)


def _exact_sketch(graph, _rng):
    return sketch.ExactCutSketch(graph)


def _noisy_sketch_factory(epsilon: float):
    def factory(graph, rng):
        return sketch.NoisyForEachSketch(graph, epsilon=epsilon, rng=rng)

    return factory


def _check_index_exact(result) -> Optional[str]:
    if result.success_rate < 1.0 - result.encoding_failure_rate:
        return (
            f"exact-sketch Index game succeeded {result.success_rate:.3f} < "
            f"1 - encoding failures {result.encoding_failure_rate:.3f}"
        )
    return None


def _check_rounds(rounds: int):
    def check(result) -> Optional[str]:
        if result.summary.trials != rounds:
            return f"game reported {result.summary.trials} rounds, expected {rounds}"
        return None

    return check


def games_inputs(seed: int) -> Dict[str, Any]:
    params = foreach_lb.ForEachParams(**INDEX_PARAMS)
    tolerance = params.epsilon / math.log(params.inv_eps)
    seeds = derive_seeds(seed, "games", 2 * INDEX_GAMES + len(GAP_HAMMING))
    return {
        "index_params": INDEX_PARAMS,
        "noisy_epsilon": 0.25 * tolerance,
        "gap_hamming": [list(x) for x in GAP_HAMMING],
        "seeds": seeds,
    }


def games_schedule(inputs: Dict[str, Any], jobs: int = GAMES_JOBS) -> List[Op]:
    params = foreach_lb.ForEachParams(**inputs["index_params"])
    seeds = inputs["seeds"]
    index_seeds, gh_seeds = seeds[: 2 * INDEX_GAMES], seeds[2 * INDEX_GAMES :]
    noisy = _noisy_sketch_factory(inputs["noisy_epsilon"])
    ops = []
    for i, seed in enumerate(index_seeds):
        factory, check, kind = (
            (_exact_sketch, _check_index_exact, "index_exact")
            if i % 2 == 0
            else (noisy, _check_rounds(INDEX_ROUNDS), "index_noisy")
        )
        ops.append(
            Op(
                kind,
                INDEX_ROUNDS,
                lambda f=factory, s=seed: foreach_lb.run_index_game(params, f, INDEX_ROUNDS, rng=s, jobs=jobs),
                check,
            )
        )
    for (inv_eps_sq, rounds), gh_seed in zip(inputs["gap_hamming"], gh_seeds):
        gh_params = forall_lb.ForAllParams(inv_eps_sq=inv_eps_sq, beta=1, num_groups=2)
        ops.append(
            Op(
                f"gap_hamming_{inv_eps_sq}",
                rounds,
                lambda p=gh_params, r=rounds, s=gh_seed: forall_lb.run_gap_hamming_game(
                    p, _exact_sketch, r, rng=s, jobs=jobs
                ),
                _check_rounds(rounds),
            )
        )
    return ops


def games_warmup() -> None:
    """Small games through the same pool path: lazy imports, first fork."""
    params = foreach_lb.ForEachParams(inv_eps=4, sqrt_beta=1, num_groups=2)
    foreach_lb.run_index_game(params, _exact_sketch, 2, rng=0, jobs=GAMES_JOBS)
    gh_params = forall_lb.ForAllParams(inv_eps_sq=4, beta=1, num_groups=2)
    forall_lb.run_gap_hamming_game(gh_params, _exact_sketch, 2, rng=0, jobs=GAMES_JOBS)


def games_outcome(result) -> Dict[str, Any]:
    """The part of a game result that must not depend on ``jobs``."""
    out = {
        "successes": result.summary.successes,
        "trials": result.summary.trials,
        "mean_sketch_bits": result.mean_sketch_bits,
    }
    if hasattr(result, "encoding_failure_rate"):
        out["encoding_failure_rate"] = result.encoding_failure_rate
    else:
        out["mean_queries"] = result.mean_queries
    return out


# ----------------------------------------------------------------------
# mincut: Thm 5.7, Thm 1.3, Lemma 5.5 / Figs 3-6, directed, k-server
# ----------------------------------------------------------------------

# Per pass: several seeded instances of each solve, so a pass's cost does
# not hinge on one random graph.  The Lemma 5.5 certifications are two
# thirds of the solves and the cheapest, so the median solve is one of
# them.  The directed, Thm 1.3 and hybrid k-server solves are sized to
# similar costs, well above the rest, and together are a sixth of the
# solves, so the 90th percentile falls in the middle of that group
# rather than on its fastest or slowest member.  A cut
# of 15 makes the Thm 5.7 search stop at the same step for nearly every
# seed (with 10 it stops after 2 or 3 steps, a 1.5x cost difference).
PLANTED = dict(cluster_size=40, cut_size=15)  # n=80
PLANTED_GRAPHS = 6
TWOSUM = dict(num_pairs=20, length=20, intersecting_fraction=0.05)  # t = L = 20
TWOSUM_GAMES = 4
GXY_SIDE, GXY_GAMMA, GXY_GRAPHS = 12, 3, 39
DIRECTED = dict(n=128, beta=4.0, density=0.1)
DIRECTED_GRAPHS = 4
KSERVER = dict(hybrid_nodes=36, forall_nodes=48, servers=2, attempts=25, hybrid_runs=2, forall_runs=2)
ESTIMATOR = dict(eps=0.3, constant=0.5, search_accuracy=0.5)


def _complete(n: int) -> UGraph:
    graph = UGraph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            graph.add_edge(u, v, 1.0)
    return graph


def _edges(graph) -> List[List[float]]:
    return [[int(u), int(v), float(w)] for u, v, w in graph.edges()]


def mincut_inputs(seed: int) -> Dict[str, Any]:
    s = iter(derive_seeds(seed, "mincut", 96))
    planted = [generators.planted_min_cut_ugraph(rng=next(s), **PLANTED)[0] for _ in range(PLANTED_GRAPHS)]
    gxy = []
    for _ in range(GXY_GRAPHS):
        gen = np.random.default_rng(next(s))
        x = gen.integers(0, 2, size=GXY_SIDE * GXY_SIDE).astype(np.int8)
        y = np.zeros(GXY_SIDE * GXY_SIDE, dtype=np.int8)
        hits = gen.choice(GXY_SIDE * GXY_SIDE, size=GXY_GAMMA, replace=False)
        x[hits] = 1
        y[hits] = 1
        gxy.append(localquery.build_gxy(x, y))
    directed = [
        generators.random_balanced_digraph(
            DIRECTED["n"], DIRECTED["beta"], density=DIRECTED["density"], rng=next(s)
        )
        for _ in range(DIRECTED_GRAPHS)
    ]
    hybrid = distributed.partition_edges(_complete(KSERVER["hybrid_nodes"]), KSERVER["servers"], rng=next(s))
    forall = distributed.partition_edges(_complete(KSERVER["forall_nodes"]), KSERVER["servers"], rng=next(s))
    return {
        "planted": planted,
        "planted_seeds": [next(s) for _ in planted],
        "twosum_seeds": [next(s) for _ in range(TWOSUM_GAMES)],
        "gxy": gxy,
        "directed": directed,
        "hybrid": hybrid,
        "hybrid_seeds": [next(s) for _ in range(KSERVER["hybrid_runs"])],
        "forall": forall,
        "forall_seeds": [next(s) for _ in range(KSERVER["forall_runs"])],
    }


def mincut_digest(inputs: Dict[str, Any]) -> str:
    return digest(
        {
            "planted": [_edges(g) for g in inputs["planted"]],
            "gxy": [[g.x.tolist(), g.y.tolist()] for g in inputs["gxy"]],
            "directed": [_edges(g) for g in inputs["directed"]],
            "hybrid": [_edges(server.shard) for server in inputs["hybrid"]],
            "forall": [_edges(server.shard) for server in inputs["forall"]],
            "seeds": [
                inputs["planted_seeds"],
                inputs["twosum_seeds"],
                inputs["hybrid_seeds"],
                inputs["forall_seeds"],
            ],
        }
    )


def _estimator(oracle, gen):
    return localquery.estimate_min_cut(oracle, rng=gen, **ESTIMATOR).value


def _solve_twosum(seed: int):
    instance = twosum.sample_twosum_instance(rng=seed, **TWOSUM)
    return localquery.solve_twosum_via_mincut(instance, _estimator, rng=seed)


def _check_twosum(result) -> Optional[str]:
    if result.bits_exchanged > 2 * result.queries:
        return f"Thm 1.3 game exchanged {result.bits_exchanged} bits > 2 x {result.queries} queries"
    return None


def _lemma55(gxy):
    value = mincut.stoer_wagner(gxy.graph)[0]
    paths = [
        connectivity.edge_disjoint_path_count(gxy.graph, u, v)
        for u, v, _ in localquery.representative_figure_pairs(gxy)
    ]
    return value, gxy.intersection(), paths


def _check_lemma55(result) -> Optional[str]:
    value, intersection, paths = result
    if value != 2 * intersection:
        return f"stoer_wagner(G_xy) = {value} != 2 INT = {2 * intersection}"
    if min(paths) < 2 * intersection:
        return f"Figs 3-6 path counts {paths} below 2 gamma = {2 * intersection}"
    return None


def _directed(graph):
    value, side = mincut.directed_global_min_cut(graph.copy())
    return value, graph.cut_weight(side)


def _check_directed(result) -> Optional[str]:
    value, side_weight = result
    if abs(value - side_weight) > 1e-9 * max(1.0, abs(value)):
        return f"directed min cut {value!r} != cut_weight of its side {side_weight!r}"
    return None


def _check_positive(result) -> Optional[str]:
    value = result.value
    return None if value > 0 else f"min cut estimate {value!r} is not positive"


def mincut_schedule(inputs: Dict[str, Any]) -> List[Op]:
    ops = [
        Op(
            "estimate_min_cut",
            1,
            lambda g=graph, s=seed: localquery.estimate_min_cut(localquery.GraphOracle(g), rng=s, **ESTIMATOR),
            _check_positive,
        )
        for graph, seed in zip(inputs["planted"], inputs["planted_seeds"])
    ]
    ops.extend(
        Op("twosum_via_mincut", 1, lambda s=s: _solve_twosum(s), _check_twosum)
        for s in inputs["twosum_seeds"]
    )
    ops.extend(Op("lemma55_gxy", 1, lambda g=g: _lemma55(g), _check_lemma55) for g in inputs["gxy"])
    ops.extend(
        Op("directed_global_min_cut", 1, lambda g=g: _directed(g), _check_directed)
        for g in inputs["directed"]
    )
    ops.extend(
        Op(
            "distributed_hybrid",
            1,
            lambda s=s: distributed.distributed_min_cut(
                inputs["hybrid"], epsilon=0.2, strategy="hybrid", rng=s,
                contraction_attempts=KSERVER["attempts"], sampling_constant=0.3,
            ),
            _check_positive,
        )
        for s in inputs["hybrid_seeds"]
    )
    ops.extend(
        Op(
            "distributed_forall_only",
            1,
            lambda s=s: distributed.distributed_min_cut(
                inputs["forall"], epsilon=0.2, strategy="forall_only", rng=s, sampling_constant=0.3,
            ),
            _check_positive,
        )
        for s in inputs["forall_seeds"]
    )
    return ops


def mincut_warmup() -> None:
    """Each solver once at toy size: lazy imports and first kernel calls."""
    graph, _ = generators.planted_min_cut_ugraph(5, 2, rng=0)
    localquery.estimate_min_cut(localquery.GraphOracle(graph), rng=0, **ESTIMATOR)
    mincut.directed_global_min_cut(generators.random_balanced_digraph(8, 2.0, rng=0))
    servers = distributed.partition_edges(_complete(8), 2, rng=0)
    distributed.distributed_min_cut(servers, epsilon=0.2, rng=0, contraction_attempts=2)
    connectivity.edge_disjoint_path_count(graph, 0, 1)


# ----------------------------------------------------------------------
# the workload driver
# ----------------------------------------------------------------------


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class BatchWorkload:
    """``games`` or ``mincut``: set up, measure whole passes, trace one."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.accounting = PoolAccounting()
        self.schedule: List[Op] = []
        self.input_digest = ""

    def setup(self) -> None:
        self.backend = get_backend()
        self.accounting.install()
        if self.name == "games":
            inputs = games_inputs(self.seed)
            self.input_digest = digest(inputs)
            self.schedule = games_schedule(inputs)
            games_warmup()
        else:
            inputs = mincut_inputs(self.seed)
            self.input_digest = mincut_digest(inputs)
            self.schedule = mincut_schedule(inputs)
            mincut_warmup()
        join_pool_workers()

    def close(self) -> None:
        join_pool_workers()

    def run_passes(self, seconds: float, max_passes: Optional[int] = None) -> Window:
        """Whole passes until ``seconds`` elapse (or ``max_passes`` ran)."""
        join_pool_workers()
        host0 = host_cpu_times()
        cpu0 = _cpu_s()
        began = time.perf_counter()
        ops = attempted = failed = 0
        latencies: List[float] = []
        errors: List[str] = []
        problems: List[str] = []
        segments: List[Dict[str, float]] = []
        while True:
            pass_began = time.perf_counter()
            first_chunk = len(self.accounting.chunks)
            pass_ops = 0
            pass_latencies: List[float] = []
            for op in self.schedule:
                attempted += op.ops
                start = time.perf_counter()
                try:
                    result = op.run()
                except Exception as exc:  # a failed op is counted, not fatal
                    failed += op.ops
                    errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                    continue
                pass_latencies.append((time.perf_counter() - start) * 1e3)
                pass_ops += op.ops
                problem = op.check(result)
                if problem is not None:
                    problems.append(f"{op.kind}: {problem}")
            pass_wall = time.perf_counter() - pass_began
            if self.name == "games":
                # op = one round: each chunk of a pool map is timed in its worker
                pass_latencies = [
                    1e3 * c["busy_s"] / c["trials"] for c in self.accounting.chunks[first_chunk:]
                ]
            ops += pass_ops
            latencies.extend(pass_latencies)
            if pass_latencies:
                segments.append({
                    "ops_per_s": pass_ops / pass_wall,
                    "latency_p50_ms": median(pass_latencies),
                    "latency_p90_ms": percentile(pass_latencies, 90),
                    "latency_p99_ms": percentile(pass_latencies, 99),
                })
            if max_passes is not None and len(segments) >= max_passes:
                break
            if time.perf_counter() - began >= seconds:
                break
        wall = time.perf_counter() - began
        join_pool_workers()
        cpu = _cpu_s() - cpu0
        steal = steal_fraction(host0, host_cpu_times())
        return Window(wall, cpu, ops, attempted, failed, latencies, errors, problems, steal, segments)

    def peak_rss_mb(self) -> float:
        parent_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(parent_kb, self.accounting.maxrss_kb()) / 1024.0

    def traced_pass(self) -> tuple:
        """One pass with every layer wrapped; returns (window, layer rows)."""
        tracer = Tracer()
        install_layers(tracer)
        self.accounting.trace(tracer)
        window = self.run_passes(0.0, max_passes=1)
        total = window.wall_s + self.accounting.busy_s()
        rows = layer_rows(tracer.snapshot(), total)
        rows.update(self.accounting.layer_metrics())
        return window, rows


