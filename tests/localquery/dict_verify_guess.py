"""The dict-graph VERIFY-GUESS, kept as the bulk-query version's oracle.

``verify_guess`` is the body ``repro.localquery.verify_guess`` ran
before its sample became one CSR snapshot fed by bulk neighbor queries,
unchanged: one ``oracle.neighbor`` call per sampled slot, a frozenset
per answer, and a dict :class:`UGraph` of the sample whose connectivity
is checked before :func:`stoer_wagner` runs.  The new version must
return the same result, leave the oracle in the same state and leave
the generator at the same point.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.errors import ParameterError
from repro.graphs.mincut import stoer_wagner
from repro.graphs.ugraph import Node, UGraph
from repro.localquery.oracle import LocalQueryOracle
from repro.localquery.verify_guess import (
    DEFAULT_SAMPLING_CONSTANT,
    VerifyGuessResult,
)
from repro.utils.rng import RngLike, ensure_rng


def verify_guess(
    oracle: LocalQueryOracle,
    degrees: Dict[Node, int],
    t: float,
    eps: float,
    rng: RngLike = None,
    constant: float = DEFAULT_SAMPLING_CONSTANT,
) -> VerifyGuessResult:
    """One VERIFY-GUESS(D, t, eps) call; see module docstring."""
    if t <= 0:
        raise ParameterError("guess t must be positive")
    if not 0.0 < eps < 1.0:
        raise ParameterError("eps must be in (0, 1)")
    if constant <= 0:
        raise ParameterError("constant must be positive")
    gen = ensure_rng(rng)
    n = len(degrees)
    if n < 2:
        raise ParameterError("need at least two vertices")

    p = min(1.0, constant * math.log(max(n, 2)) / (eps * eps * t))
    q = 1.0 - math.sqrt(max(0.0, 1.0 - p))

    before = oracle.counter.neighbor_queries
    edges = set()
    for v, deg in degrees.items():
        if deg == 0:
            continue
        selected = int(gen.binomial(deg, q))
        if selected == 0:
            continue
        for index in gen.choice(deg, size=selected, replace=False):
            u = oracle.neighbor(v, int(index))
            if u is not None:
                edges.add(frozenset((v, u)))
    neighbor_queries = oracle.counter.neighbor_queries - before

    sample = UGraph(nodes=degrees.keys())
    for edge in edges:
        u, v = tuple(edge)
        sample.add_edge(u, v, 1.0)

    if sample.num_edges == 0 or not sample.is_connected():
        k_hat = 0.0
    else:
        k_hat = stoer_wagner(sample)[0] / p

    accepted = k_hat >= t / 2.0
    return VerifyGuessResult(
        guess=t,
        accepted=accepted,
        estimate=k_hat if accepted else None,
        keep_prob=p,
        sampled_edges=len(edges),
        neighbor_queries=neighbor_queries,
    )
