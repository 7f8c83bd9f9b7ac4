"""Cut sketch interface (Definitions 2.2 and 2.3).

A *cut sketch* is any data structure from which (approximate) cut values
can be recovered.  The paper distinguishes:

* **for-all** (Definition 2.2): with probability 2/3 the sketch answers
  *every* cut within ``1 +- eps`` simultaneously;
* **for-each** (Definition 2.3): *each fixed* cut is answered within
  ``1 +- eps`` with probability 2/3 (fresh randomness per query).

The lower-bound games in :mod:`repro.foreach_lb` and
:mod:`repro.forall_lb` are written against this interface so the same
decoder can be run against an exact sketch (sanity), a noise-injected
oracle (the adversarial error model of the proofs), or a genuine
sparsifier (the matching upper bound).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from enum import Enum
from typing import AbstractSet, List, Sequence

from repro.graphs.digraph import Node
from repro.obs import STATE as _OBS
from repro.obs import count as _obs_count
from repro.obs import memory as _obs_memory
from repro.obs import observe as _obs_observe


class SketchModel(Enum):
    """Which quantifier order the sketch guarantees."""

    EXACT = "exact"
    FOR_EACH = "for-each"
    FOR_ALL = "for-all"


class CutSketch(ABC):
    """Abstract cut sketch: query directed cut values, account bits.

    A sketch may also define an optional row path,
    ``query_rows(labels, member) -> np.ndarray``: ``member`` is a
    boolean matrix whose columns follow ``labels``, and row ``k`` is the
    side ``{labels[j] : member[k, j]}``.  It returns a float64 array
    equal, value for value, to :meth:`query_many` of those sides.  The
    Thm 1.2 decoder uses it whenever it exists, so a subclass that
    overrides ``query`` or ``query_many`` of a sketch with a row path
    must override ``query_rows`` too.  The one sketch in this package
    with a row path is :class:`~repro.sketch.exact.ExactCutSketch`.
    """

    @property
    @abstractmethod
    def model(self) -> SketchModel:
        """The guarantee model this sketch provides."""

    @property
    @abstractmethod
    def epsilon(self) -> float:
        """The accuracy parameter (0.0 for exact sketches)."""

    @abstractmethod
    def query(self, side: AbstractSet[Node]) -> float:
        """Approximate ``w(S, V \\ S)`` for ``S = side``."""

    def query_many(self, sides: Sequence[AbstractSet[Node]]) -> List[float]:
        """Answer a batch of cut queries, in order.

        Semantically identical to ``[self.query(s) for s in sides]`` —
        including per-query randomness drawn in the same order — but
        sketches backed by a concrete graph override this to evaluate
        all true cut values in one vectorized CSR kernel pass.  Decoders
        issue their cut probes through this entry point, or through the
        optional ``query_rows`` when the sketch has one (see the class
        docstring).
        """
        return [self.query(side) for side in sides]

    @abstractmethod
    def size_bits(self) -> int:
        """Size of the sketch in bits — what the lower bounds measure."""

    # ------------------------------------------------------------------
    # observability hooks (no-ops while telemetry is disabled)
    # ------------------------------------------------------------------
    def _obs_queries(self, n: int) -> None:
        """Record ``n`` cut queries under ``sketch.queries`` telemetry.

        Leaf implementations call this from ``query`` / ``query_many``
        (and ``query_rows``, where defined);
        combinators (e.g. the boosted median) do not, so inner queries
        are counted exactly once.
        """
        if _OBS.enabled:
            _obs_count("sketch.queries", n)
            _obs_observe("sketch.query_batch", n)

    def _obs_size(self, bits: int) -> int:
        """Record one ``size_bits()`` observation; returns ``bits``.

        Histogram ``sketch.size_bits`` therefore reproduces exactly the
        sizes the games sum into their reported totals.  Under an active
        memory profiler the sketch's *measured* resident bytes ride
        along (once per instance) as a ``memory.sketch_bytes``
        observation plus a footprint event carrying the
        measured-bytes/theoretical-bits ratio — the quantity the
        Thm 1.1/1.2 space companions certify (:mod:`repro.obs.memory`).
        """
        if _OBS.enabled:
            _obs_observe("sketch.size_bits", bits)
            if _obs_memory.active() is not None:
                _obs_memory.observe_footprint(self, theoretical_bits=bits)
        return bits

    def query_between(
        self, side: AbstractSet[Node], complement_hint: AbstractSet[Node]
    ) -> float:
        """Convenience wrapper used by decoders that think in (A, B) pairs.

        Sketches only answer full cuts ``(S, V \\ S)``; the hint argument
        exists for readability at call sites and is validated nowhere —
        decoders are responsible for building the right ``S``.
        """
        return self.query(side)
