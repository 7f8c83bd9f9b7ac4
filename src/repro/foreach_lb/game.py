"""The end-to-end Index game of Theorem 1.1.

One round: sample a random sign string ``s`` and a random index ``q``
(Lemma 3.1's distribution); Alice encodes ``s`` into the balanced graph
and sketches it; Bob decodes ``s_q`` from the sketch.  The theorem says
that whenever the sketch is a valid ``(1 +- c2 eps / ln(1/eps))``
for-each sketch, Bob succeeds with probability >= 2/3, and therefore the
sketch carries ``Omega(|s|)`` bits.

:func:`run_index_game` plays many rounds against an arbitrary sketch
factory and reports the empirical success rate together with the sketch
size, letting benchmarks trace the success/size trade-off as the sketch
accuracy degrades (the operational content of the lower bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.foreach_lb.decoder import ForEachDecoder
from repro.foreach_lb.encoder import EncodedGraph, ForEachEncoder
from repro.foreach_lb.params import ForEachParams
from repro.graphs.digraph import DiGraph
from repro.obs import STATE as _OBS
from repro.obs import capture as _capture
from repro.obs import count as _obs_count
from repro.obs import span as _obs_span
from repro.parallel import run_trials
from repro.sketch.base import CutSketch
from repro.utils.bitstrings import random_signstring
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.stats import TrialSummary

#: A sketch factory receives the encoded graph and an RNG and returns the
#: sketch Bob will query.
SketchFactory = Callable[[DiGraph, np.random.Generator], CutSketch]


@dataclass
class IndexGameResult:
    """Aggregate outcome of repeated Index-game rounds."""

    params: ForEachParams
    summary: TrialSummary
    mean_sketch_bits: float
    #: Fraction of rounds whose target bit sat in a failed encoding block
    #: (those rounds count as coin flips, mirroring the proof's budget).
    encoding_failure_rate: float

    @property
    def success_rate(self) -> float:
        """Empirical probability that Bob recovered the right bit."""
        return self.summary.rate

    def fano_bits(self) -> float:
        """Information-theoretic bits the sketch must carry (Fano).

        If Bob recovers a uniform bit with probability ``p > 1/2``, the
        message carries at least ``|s| * (1 - H(p))`` bits, where ``H``
        is the binary entropy.  This is the bridge from success rate to
        the Omega(n sqrt(beta)/eps) statement.
        """
        p = min(max(self.success_rate, 1e-9), 1 - 1e-9)
        entropy = -(p * np.log2(p) + (1 - p) * np.log2(1 - p))
        return self.params.string_length * max(0.0, 1.0 - entropy)


def run_index_game(
    params: ForEachParams,
    sketch_factory: SketchFactory,
    rounds: int,
    rng: RngLike = None,
    boost: int = 1,
    jobs: Optional[int] = None,
) -> IndexGameResult:
    """Play ``rounds`` independent rounds of the Index game.

    ``jobs`` fans rounds out over worker processes (see
    :mod:`repro.parallel`); every value — including the default serial
    resolution — produces bit-identical results and telemetry, because
    each round's randomness is split from ``rng`` by trial index before
    scheduling.
    """
    if rounds < 1:
        raise ParameterError("rounds must be positive")
    if boost < 1:
        raise ParameterError("boost must be at least 1")
    gen = ensure_rng(rng)
    encoder = ForEachEncoder(params)
    decoder = ForEachDecoder(params)

    def play_round(round_rng: np.random.Generator) -> Tuple[int, int, float]:
        with _obs_span("foreach.round"):
            s = random_signstring(params.string_length, rng=round_rng)
            q = int(round_rng.integers(0, params.string_length))
            with _obs_span("foreach.encode"):
                encoded = encoder.encode(s)
            block = params.locate_bit(q)[:3]
            failed = int(block in encoded.failed_blocks)
            sketch = sketch_factory(encoded.graph, round_rng)
            sketch_bits = float(sketch.size_bits())
            if _OBS.enabled:
                # Alice's one-way message: the sketch of her encoding.
                _capture.record(
                    "alice", "bob", "foreach.sketch", int(sketch_bits),
                    payload=encoded.graph,
                )
            with _obs_span("foreach.decode", q=q):
                guess = decoder.decode_bit(sketch, q, boost=boost)
            success = int(guess == int(s[q]))
            if _OBS.enabled:
                # Bob's answer is output, not charged communication.
                _capture.record(
                    "bob", "referee", "foreach.answer", 0,
                    payload=(int(q), int(guess)),
                )
                _obs_count("game.foreach.rounds")
        return success, failed, sketch_bits

    outcomes = run_trials(play_round, rounds, gen, jobs=jobs)
    successes = sum(success for success, _, _ in outcomes)
    failed_rounds = sum(failed for _, failed, _ in outcomes)
    total_bits = sum(bits for _, _, bits in outcomes)
    return IndexGameResult(
        params=params,
        summary=TrialSummary(successes=successes, trials=rounds),
        mean_sketch_bits=total_bits / rounds,
        encoding_failure_rate=failed_rounds / rounds,
    )
