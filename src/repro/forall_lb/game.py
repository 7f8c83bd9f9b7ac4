"""The end-to-end Gap-Hamming game of Theorem 1.2.

One round: sample a distributional Gap-Hamming instance (Lemma 4.1) with
``h = (ell-1) beta^2/eps^2`` strings; Alice encodes all of them into the
``(2 beta)``-balanced graph and sketches it; Bob runs the subset-argmax
decoder and declares HIGH or LOW.  Whenever the sketch is a valid
``(1 +- c2 eps)`` for-all sketch, Bob succeeds with probability >= 2/3,
so the sketch must carry ``Omega(h/eps^2) = Omega(n beta/eps^2)`` bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.comm.gap_hamming import sample_gap_hamming_instance
from repro.errors import ParameterError
from repro.forall_lb.decoder import (
    DEFAULT_ENUMERATION_LIMIT,
    ForAllDecoder,
    half_subset_table,
)
from repro.forall_lb.encoder import ForAllEncoder
from repro.forall_lb.params import ForAllParams
from repro.graphs.digraph import DiGraph
from repro.obs import STATE as _OBS
from repro.obs import capture as _capture
from repro.obs import count as _obs_count
from repro.obs import memory as _obs_memory
from repro.obs import span as _obs_span
from repro.parallel import run_trials
from repro.sketch.base import CutSketch
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.stats import TrialSummary

SketchFactory = Callable[[DiGraph, np.random.Generator], CutSketch]


@dataclass
class GapHammingGameResult:
    """Aggregate outcome of repeated Gap-Hamming game rounds."""

    params: ForAllParams
    summary: TrialSummary
    mean_sketch_bits: float
    mean_queries: float
    #: Mean measured resident bytes per round sketch while a memory
    #: profiler runs (:func:`repro.obs.memory.deep_sizeof`), else None.
    mean_sketch_bytes: Optional[float] = None

    @property
    def success_rate(self) -> float:
        """Empirical probability Bob identified the promise side."""
        return self.summary.rate

    def fano_bits(self) -> float:
        """The asymptotic bit yardstick via Lemma 4.1 and Fano.

        A protocol deciding the planted pair with probability ``p > 1/2``
        on the h-fold distribution must transfer
        ``Omega(h / eps^2) * (1 - H(p))``-order information; we report
        ``total_bits * (1 - H(p))`` as the comparable measured quantity.
        The constant is asymptotic — benchmarks only compare shapes.
        """
        p = min(max(self.success_rate, 1e-9), 1 - 1e-9)
        entropy = -(p * np.log2(p) + (1 - p) * np.log2(1 - p))
        return self.params.total_bits * max(0.0, 1.0 - entropy)


def run_gap_hamming_game(
    params: ForAllParams,
    sketch_factory: SketchFactory,
    rounds: int,
    rng: RngLike = None,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
    jobs: Optional[int] = None,
) -> GapHammingGameResult:
    """Play ``rounds`` independent rounds of the Gap-Hamming game.

    ``jobs`` fans rounds out over worker processes (see
    :mod:`repro.parallel`) with results and telemetry bit-identical to
    the serial path for any worker count.  While a memory profiler runs,
    each round also measures its sketch's resident bytes right after
    ``size_bits()``.
    """
    if rounds < 1:
        raise ParameterError("rounds must be positive")
    if enumeration_limit < 1:
        raise ParameterError("enumeration_limit must be positive")
    gen = ensure_rng(rng)
    encoder = ForAllEncoder(params)
    measure_bytes = _obs_memory.active() is not None

    def play_round(
        round_rng: np.random.Generator,
    ) -> Tuple[int, float, float, int]:
        with _obs_span("forall.round"):
            instance = sample_gap_hamming_instance(
                num_strings=params.num_strings,
                length=params.string_length,
                rng=round_rng,
            )
            with _obs_span("forall.encode"):
                encoded = encoder.encode(instance.strings)
            sketch = sketch_factory(encoded.graph, round_rng)
            sketch_bits = float(sketch.size_bits())
            sketch_bytes = (
                _obs_memory.deep_sizeof(sketch) if measure_bytes else 0
            )
            if _OBS.enabled:
                # Alice's one-way message: the sketch of her encoding.
                _capture.record(
                    "alice", "bob", "forall.sketch", int(sketch_bits),
                    payload=encoded.graph,
                )
            decoder = ForAllDecoder(
                params, enumeration_limit=enumeration_limit, rng=round_rng
            )
            with _obs_span("forall.decode"):
                decision = decoder.decide(sketch, instance.index, instance.query)
            success = int(decision.case is instance.case)
            if _OBS.enabled:
                # Bob's HIGH/LOW declaration is output, not charged bits.
                _capture.record(
                    "bob", "referee", "forall.decision", 0,
                    payload=str(decision.case),
                )
                _obs_count("game.forall.rounds")
        return success, sketch_bits, float(decision.queries_made), sketch_bytes

    # Built here, so a worker forked for these rounds inherits the table
    # (a resident worker builds its own once).
    half_subset_table(params.group_size, enumeration_limit)
    outcomes = run_trials(play_round, rounds, gen, jobs=jobs)
    successes, total_bits, total_queries, total_bytes = map(
        sum, zip(*outcomes)
    )
    return GapHammingGameResult(
        params=params,
        summary=TrialSummary(successes=successes, trials=rounds),
        mean_sketch_bits=total_bits / rounds,
        mean_queries=total_queries / rounds,
        mean_sketch_bytes=total_bytes / rounds if measure_bytes else None,
    )
