"""Noise-injected cut oracles — the error model of the lower-bound proofs.

The lower-bound arguments never open up a specific sketch; they only use
that Bob's recovered value lies in ``(1 +- eps) * w(S, V\\S)`` (always,
for for-all; with probability 2/3 per query, for for-each).  These
classes realize exactly that interface on top of the true graph:

* :class:`NoisyForEachSketch` — fresh multiplicative noise per query, and
  with probability ``failure_prob`` an unbounded (adversarial) answer,
  modelling Definition 2.3's per-query failure;
* :class:`NoisyForAllSketch` — *consistent* per-cut noise (the same cut
  always returns the same value), all cuts within ``1 +- eps``, modelling
  Definition 2.2;
* both support ``adversarial=True``, which pins the noise magnitude to
  exactly ``+-eps`` with a pseudorandom sign — the hardest instance a
  correct sketch is allowed to emit, and the right stress test for the
  decoders.

``size_bits`` reports the information-theoretic size of what the oracle
holds (the full graph): these oracles exist to *test decoders*, not to
be small.
"""

from __future__ import annotations

import hashlib
from typing import AbstractSet, FrozenSet, List, Optional, Sequence

import numpy as np

from repro.errors import SketchError
from repro.graphs.digraph import DiGraph, Node
from repro.sketch.base import CutSketch, SketchModel
from repro.sketch.serialization import graph_size_bits
from repro.utils.rng import RngLike, ensure_rng


def _cut_fingerprint(seed: int, side: FrozenSet[Node]) -> int:
    """Stable 64-bit fingerprint of (sketch seed, cut side)."""
    digest = hashlib.blake2b(digest_size=8)
    digest.update(str(seed).encode())
    for item in sorted(map(repr, side)):
        digest.update(item.encode())
    return int.from_bytes(digest.digest(), "big")


class NoisyForEachSketch(CutSketch):
    """(1 +- eps) for-each oracle with per-query failure probability."""

    def __init__(
        self,
        graph: DiGraph,
        epsilon: float,
        failure_prob: float = 0.0,
        adversarial: bool = False,
        rng: RngLike = None,
    ):
        if not 0.0 <= epsilon < 1.0:
            raise SketchError("epsilon must be in [0, 1)")
        if not 0.0 <= failure_prob < 1.0:
            raise SketchError("failure_prob must be in [0, 1)")
        self._csr = graph.freeze()
        self._graph: Optional[DiGraph] = None
        self._epsilon = epsilon
        self._failure_prob = failure_prob
        self._adversarial = adversarial
        self._rng = ensure_rng(rng)

    @property
    def model(self) -> SketchModel:
        return SketchModel.FOR_EACH

    @property
    def epsilon(self) -> float:
        return self._epsilon

    def _perturb(self, true_value: float) -> float:
        """Apply one query's worth of noise (one rng draw sequence)."""
        if self._failure_prob > 0 and self._rng.random() < self._failure_prob:
            # A failed for-each query may return anything; a doubling is
            # the classic way to break a naive (non-boosted) decoder.
            return 2.0 * true_value + 1.0
        if self._adversarial:
            sign = 1.0 if self._rng.random() < 0.5 else -1.0
            return true_value * (1.0 + sign * self._epsilon)
        noise = self._rng.uniform(-self._epsilon, self._epsilon)
        return true_value * (1.0 + noise)

    def query(self, side: AbstractSet[Node]) -> float:
        """Fresh (1 +- eps) noise; occasional adversarial garbage."""
        self._obs_queries(1)
        if self._graph is None:
            self._graph = self._csr.to_digraph()
        return self._perturb(self._graph.cut_weight(side))

    def query_many(self, sides: Sequence[AbstractSet[Node]]) -> List[float]:
        """Batched queries: one CSR kernel pass for the true values,
        then per-query noise drawn in the same order as repeated
        :meth:`query` calls (so games are reproducible either way)."""
        self._obs_queries(len(sides))
        csr = self._csr
        member = csr.membership_matrix(sides)
        csr.check_proper(member)
        true_values = csr.cut_weights(member)
        return [self._perturb(float(value)) for value in true_values]

    def size_bits(self) -> int:
        return self._obs_size(graph_size_bits(self._csr))


class NoisyForAllSketch(CutSketch):
    """(1 +- eps) for-all oracle: consistent noise, every cut in range.

    The per-cut multiplier is derived from a fingerprint of the cut, so
    repeated queries agree and *all* cuts are simultaneously within
    ``1 +- eps`` — exactly Definition 2.2 conditioned on the success
    event.
    """

    def __init__(
        self,
        graph: DiGraph,
        epsilon: float,
        adversarial: bool = False,
        seed: int = 0,
    ):
        if not 0.0 <= epsilon < 1.0:
            raise SketchError("epsilon must be in [0, 1)")
        self._csr = graph.freeze()
        self._graph: Optional[DiGraph] = None
        self._epsilon = epsilon
        self._adversarial = adversarial
        self._seed = seed

    @property
    def model(self) -> SketchModel:
        return SketchModel.FOR_ALL

    @property
    def epsilon(self) -> float:
        return self._epsilon

    def _perturb(self, true_value: float, side: AbstractSet[Node]) -> float:
        fingerprint = _cut_fingerprint(self._seed, frozenset(side))
        unit = (fingerprint % (2**53)) / float(2**53)  # in [0, 1)
        if self._adversarial:
            sign = 1.0 if unit < 0.5 else -1.0
            return true_value * (1.0 + sign * self._epsilon)
        noise = (2.0 * unit - 1.0) * self._epsilon
        return true_value * (1.0 + noise)

    def query(self, side: AbstractSet[Node]) -> float:
        """Deterministic (1 +- eps) answer for this cut."""
        self._obs_queries(1)
        if self._graph is None:
            self._graph = self._csr.to_digraph()
        return self._perturb(self._graph.cut_weight(side), side)

    def query_many(self, sides: Sequence[AbstractSet[Node]]) -> List[float]:
        """Batched queries: vectorized true values, per-cut fingerprints."""
        self._obs_queries(len(sides))
        csr = self._csr
        member = csr.membership_matrix(sides)
        csr.check_proper(member)
        true_values = csr.cut_weights(member)
        return [
            self._perturb(float(value), side)
            for value, side in zip(true_values, sides)
        ]

    def size_bits(self) -> int:
        return self._obs_size(graph_size_bits(self._csr))
