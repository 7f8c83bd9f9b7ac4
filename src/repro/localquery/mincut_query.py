"""Min-cut estimation in the local query model (Theorem 5.7).

The [BGMP21] driver: binary-search the guess ``t`` downward from ``n/2``
with VERIFY-GUESS until a guess is accepted, then make one refined call
below the acceptance gap and return its estimate.

Two variants, the paper's Section 5.4 ablation:

* ``variant="naive"`` — the original analysis: every call (including
  the whole search) runs at accuracy ``eps``.  The first accepted ``t``
  may be as large as ``kappa(eps) * k`` with
  ``kappa(eps) = Theta(log n / eps^2)``, so the refined call at
  ``t / kappa(eps)`` costs ``O~(m / (eps^4 k))`` queries.
* ``variant="modified"`` — the paper's fix: search with a *constant*
  accuracy ``beta_0``, so the acceptance gap is only
  ``kappa(beta_0) = Theta(log n)``, and only the single refined call
  runs at accuracy ``eps`` — total ``O~(m / (eps^2 k))`` queries,
  matching the Theorem 1.3 lower bound.

Both variants clamp the sampling probability at 1, so the query count
never exceeds ``O(m)`` — reproducing the ``min{m, m/(eps^2 k)}`` shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import ParameterError
from repro.localquery.oracle import LocalQueryOracle
from repro.localquery.verify_guess import (
    DEFAULT_SAMPLING_CONSTANT,
    VerifyGuessResult,
    fetch_degrees,
    verify_guess,
)
from repro.utils.rng import RngLike, ensure_rng

#: The constant search accuracy ``beta_0`` of the modified variant.
DEFAULT_SEARCH_ACCURACY = 0.25


@dataclass
class MinCutEstimate:
    """Outcome of the full estimation pipeline."""

    value: float
    total_queries: int
    degree_queries: int
    neighbor_queries: int
    #: Neighbor queries spent inside the binary search (the phase whose
    #: accuracy the Section 5.4 modification relaxes to a constant).
    search_queries: int
    #: Neighbor queries of the single refined call at accuracy eps.
    refined_queries: int
    search_steps: int
    accepted_guess: float
    refined_guess: float
    variant: str


def _acceptance_gap(n: int, accuracy: float, constant: float) -> float:
    """``kappa``: how far above ``k`` an accepted guess can sit.

    Mirrors the sampling probability formula: rejection is only
    guaranteed once ``p(t) * k`` falls below ``Theta(log n)``, i.e. for
    ``t >= constant * ln(n) * k / accuracy^2``.
    """
    return max(2.0, constant * math.log(max(n, 2)) / (accuracy * accuracy))


def estimate_min_cut(
    oracle: LocalQueryOracle,
    eps: float,
    rng: RngLike = None,
    variant: str = "modified",
    search_accuracy: float = DEFAULT_SEARCH_ACCURACY,
    constant: float = DEFAULT_SAMPLING_CONSTANT,
    acceptance_gap: Optional[float] = None,
) -> MinCutEstimate:
    """Estimate the global min cut to ``(1 +- eps)`` via local queries.

    ``acceptance_gap`` overrides the worst-case ``kappa`` formula with a
    fixed factor; empirically the binary search accepts at ``t <= 2k``,
    so small overrides trade the worst-case guarantee for fewer queries
    (the benchmarks use this to expose the un-clamped eps regime).
    """
    if variant not in ("modified", "naive"):
        raise ParameterError(f"unknown variant {variant!r}")
    if not 0.0 < eps < 1.0:
        raise ParameterError("eps must be in (0, 1)")
    if variant == "modified" and not 0.0 < search_accuracy < 1.0:
        raise ParameterError("search_accuracy must be in (0, 1)")
    if acceptance_gap is not None and not acceptance_gap >= 1:
        raise ParameterError("acceptance_gap must be >= 1")
    gen = ensure_rng(rng)

    degrees = fetch_degrees(oracle)
    n = len(degrees)
    if n < 2:
        raise ParameterError("need at least two vertices")

    accuracy = search_accuracy if variant == "modified" else eps
    t = n / 2.0
    steps = 0
    search_queries = 0
    accepted: Optional[VerifyGuessResult] = None
    while t >= 1.0:
        steps += 1
        result = verify_guess(
            oracle, degrees, t, accuracy, rng=gen, constant=constant
        )
        search_queries += result.neighbor_queries
        if result.accepted:
            accepted = result
            break
        t /= 2.0
    if accepted is None:
        # Even t = 1 rejected: at t <= 1 the sampling probability is
        # clamped to 1, so the sample was exact and the graph is
        # disconnected (min cut 0).
        return MinCutEstimate(
            value=0.0,
            total_queries=oracle.counter.total,
            degree_queries=oracle.counter.degree_queries,
            neighbor_queries=oracle.counter.neighbor_queries,
            search_queries=search_queries,
            refined_queries=0,
            search_steps=steps,
            accepted_guess=0.0,
            refined_guess=0.0,
            variant=variant,
        )

    if acceptance_gap is not None:
        kappa = acceptance_gap
    else:
        kappa = _acceptance_gap(n, accuracy, constant)
    refined_t = max(1e-9, accepted.guess / kappa)
    final = verify_guess(oracle, degrees, refined_t, eps, rng=gen, constant=constant)
    # Below the gap the call accepts w.h.p.; fall back to its rescaled
    # sample value if an unlucky sample rejected.
    value = final.estimate if final.estimate is not None else (
        accepted.estimate if accepted.estimate is not None else 0.0
    )
    return MinCutEstimate(
        value=float(value),
        total_queries=oracle.counter.total,
        degree_queries=oracle.counter.degree_queries,
        neighbor_queries=oracle.counter.neighbor_queries,
        search_queries=search_queries,
        refined_queries=final.neighbor_queries,
        search_steps=steps,
        accepted_guess=accepted.guess,
        refined_guess=refined_t,
        variant=variant,
    )
