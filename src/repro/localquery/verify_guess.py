"""VERIFY-GUESS (Lemma 5.8, after [BGMP21]).

``verify_guess(oracle, degrees, t, eps)`` tests a guess ``t`` for the
minimum cut ``k`` using ``O~(eps^-2 m / t)`` queries:

1. sample every edge independently with probability
   ``p = min(1, c ln(n) / (eps^2 t))`` — realized through *slot*
   sampling: each (vertex, index) slot is selected with probability
   ``q = 1 - sqrt(1 - p)`` so that an edge (two slots) survives with
   probability exactly ``p``; each selected slot costs one neighbor
   query;
2. compute the minimum cut ``c_hat`` of the sampled graph and rescale to
   ``k_hat = c_hat / p`` (Karger sampling: unbiased, concentrated when
   ``p k >> log n``);
3. accept iff ``k_hat >= t/2``.

Semantics matching the lemma: if ``t <= k`` the sampling preserves all
cuts to ``1 +- eps`` w.h.p., so the call accepts and ``k_hat`` is a
``(1 +- eps)``-approximation of ``k``; if ``t >= kappa k`` with
``kappa = Theta(log n / eps^2)`` the sample's min cut collapses and the
call rejects.  Between the two thresholds either outcome may occur.

Degrees are passed in (the lemma's ``D``): the caller fetches them once
with ``n`` degree queries and shares them across all guesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.graphs.csr import CSRGraph
from repro.graphs.mincut import snapshot_min_cut_value
from repro.graphs.ugraph import Node
from repro.localquery.oracle import LocalQueryOracle
from repro.utils.rng import RngLike, ensure_rng

#: The oversampling constant ``c`` in ``p``.  Larger is safer (more
#: queries); 2.0 keeps the accept/reject semantics reliable on every
#: workload in the test suite.
DEFAULT_SAMPLING_CONSTANT = 2.0


@dataclass
class VerifyGuessResult:
    """Outcome of one VERIFY-GUESS call."""

    guess: float
    accepted: bool
    estimate: Optional[float]
    keep_prob: float
    sampled_edges: int
    neighbor_queries: int


def fetch_degrees(oracle: LocalQueryOracle) -> Dict[Node, int]:
    """The degree map ``D`` — ``n`` degree queries, made once."""
    return {v: oracle.degree(v) for v in oracle.vertices}


def verify_guess(
    oracle: LocalQueryOracle,
    degrees: Dict[Node, int],
    t: float,
    eps: float,
    rng: RngLike = None,
    constant: float = DEFAULT_SAMPLING_CONSTANT,
) -> VerifyGuessResult:
    """One VERIFY-GUESS(D, t, eps) call; see module docstring.

    ``degrees`` maps every vertex, in the order the slots are drawn;
    each vertex's selected slots go to the oracle as one bulk
    :meth:`~repro.localquery.oracle.LocalQueryOracle.neighbors` call.
    """
    if not t > 0:
        raise ParameterError("guess t must be positive")
    if not 0.0 < eps < 1.0:
        raise ParameterError("eps must be in (0, 1)")
    if not constant > 0:
        raise ParameterError("constant must be positive")
    gen = ensure_rng(rng)
    n = len(degrees)
    if n < 2:
        raise ParameterError("need at least two vertices")

    p = min(1.0, constant * math.log(max(n, 2)) / (eps * eps * t))
    q = 1.0 - math.sqrt(max(0.0, 1.0 - p))

    index = {v: i for i, v in enumerate(degrees)}
    tails: List[int] = []
    heads: List[int] = []
    before = oracle.counter.neighbor_queries
    for i, (v, deg) in enumerate(degrees.items()):
        if deg == 0:
            continue
        selected = int(gen.binomial(deg, q))
        if selected == 0:
            continue
        slots = gen.choice(deg, size=selected, replace=False).tolist()
        answers = oracle.neighbors(v, slots)
        try:
            found = [index[u] for u in answers if u is not None]
        except KeyError as missing:
            raise ParameterError(
                f"degrees has no entry for vertex {missing.args[0]!r}"
            ) from None
        tails.extend([i] * len(found))
        heads.extend(found)
    neighbor_queries = oracle.counter.neighbor_queries - before

    sample = _sample_snapshot(list(degrees), tails, heads)
    value = snapshot_min_cut_value(sample)
    k_hat = value / p if value > 0.0 else 0.0

    accepted = k_hat >= t / 2.0
    return VerifyGuessResult(
        guess=t,
        accepted=accepted,
        estimate=k_hat if accepted else None,
        keep_prob=p,
        sampled_edges=sample.num_edges // 2,
        neighbor_queries=neighbor_queries,
    )


def _sample_snapshot(
    labels: List[Node], tails: List[int], heads: List[int]
) -> CSRGraph:
    """The sampled edges ``tails[k] -- heads[k]`` as one undirected snapshot.

    Each edge is stored in both directions with weight 1.0, as
    ``UGraph.freeze()`` stores it; an edge found from both endpoints is
    kept once.  Rows are sorted by head, so the snapshot depends only on
    the set of edges.
    """
    n = len(labels)
    ends = np.array([tails, heads], dtype=np.int64)
    keys = np.concatenate((ends[0] * n + ends[1], ends[1] * n + ends[0]))
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    return CSRGraph(labels, keys // n, keys % n, np.ones(keys.size))


def verify_guess_trials(
    oracle_factory: Callable[[], LocalQueryOracle],
    t: float,
    eps: float,
    seeds: Sequence[int],
    constant: float = DEFAULT_SAMPLING_CONSTANT,
    jobs: Optional[int] = None,
) -> List[VerifyGuessResult]:
    """Independent VERIFY-GUESS(t, eps) trials, one per seed.

    Each trial builds a fresh oracle from ``oracle_factory`` (so query
    counters never bleed between trials), fetches its degree map, and
    runs :func:`verify_guess` seeded by its own entry of ``seeds``.
    Because every trial carries its full randomness in that explicit
    seed, the trials are independent and ``jobs`` may fan them out over
    worker processes (:class:`repro.parallel.TrialPool`) with results
    identical to the serial loop for any worker count.  Results return
    in seed order.
    """
    from repro.parallel import TrialPool

    def run_one(seed: int) -> VerifyGuessResult:
        oracle = oracle_factory()
        degrees = fetch_degrees(oracle)
        return verify_guess(
            oracle, degrees, t=t, eps=eps, rng=seed, constant=constant
        )

    return TrialPool(jobs=jobs).map(run_one, list(seeds))
