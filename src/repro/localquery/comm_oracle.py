"""Communication-backed oracle for ``G_{x,y}`` (Lemma 5.6's simulation).

Alice holds ``x``, Bob holds ``y``; the algorithm queries the oracle and
each answer is produced by exchanging the relevant bits:

* degree queries are free — every vertex of ``G_{x,y}`` has degree
  ``sqrt(N)``, independent of the strings;
* a neighbor query for ``a_i``'s ``j``-th neighbor needs ``x_{i,j}`` and
  ``y_{i,j}``: 2 bits;
* a pair query likewise needs the one relevant index pair: 2 bits
  (pairs that are never adjacent in any ``G_{x,y}`` — e.g. two vertices
  of ``A`` — cost 0 bits).

Once an index pair has been exchanged both parties remember it, so
repeated queries about the same pair are free; this only lowers the
communication, i.e. it never weakens the measured lower bound.

This is exactly the object that converts a ``T``-query min-cut algorithm
into an ``O(T)``-bit 2-SUM protocol in the proof of Theorem 1.3.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Set

import numpy as np

from repro.comm.protocol import BitLedger
from repro.errors import OracleError, ParameterError
from repro.localquery.gxy import (
    PART_A,
    PART_A_PRIME,
    PART_B,
    PART_B_PRIME,
    PARTS,
    GxyNode,
)
from repro.localquery.oracle import LocalQueryOracle
from repro.utils.bitstrings import BitString

#: (part of u, part of v) pairs that can carry an edge in some G_{x,y},
#: mapped to whether the edge exists on intersection (True) or on
#: non-intersection (False).
_EDGE_RULES = {
    (PART_A, PART_A_PRIME): False,
    (PART_B, PART_B_PRIME): False,
    (PART_A, PART_B_PRIME): True,
    (PART_B, PART_A_PRIME): True,
}

#: A vertex's part mapped to its ``j``-th neighbor's part when the slot's
#: index pair intersects, and when it does not (see :meth:`neighbor`).
_NEIGHBOR_PARTS = {
    PART_A: (PART_B_PRIME, PART_A_PRIME),
    PART_B: (PART_A_PRIME, PART_B_PRIME),
    PART_A_PRIME: (PART_B, PART_A),
    PART_B_PRIME: (PART_A, PART_B),
}


class CommOracle(LocalQueryOracle):
    """Answers local queries on ``G_{x,y}`` by Alice/Bob bit exchange."""

    def __init__(self, x: BitString, y: BitString, budget: Optional[int] = None):
        super().__init__(budget=budget)
        # Copies: a caller mutating its strings must not change answers.
        x = np.array(x, dtype=np.int8)
        y = np.array(y, dtype=np.int8)
        if x.shape != y.shape or x.ndim != 1:
            raise ParameterError("x and y must be 1-D strings of equal length")
        side = int(math.isqrt(x.shape[0]))
        if side * side != x.shape[0] or side < 1:
            raise ParameterError("string length must be a positive perfect square")
        self._x = x
        self._y = y
        self._side = side
        self.ledger = BitLedger()
        #: Positions ``i * side + j`` of the index pairs exchanged so far.
        self._known: Set[int] = set()

    @property
    def side(self) -> int:
        """``ell = sqrt(N)``: part size and uniform degree."""
        return self._side

    @property
    def vertices(self) -> List[GxyNode]:
        return [(part, index) for part in PARTS for index in range(self._side)]

    def _is_node(self, v: GxyNode) -> bool:
        return (
            isinstance(v, tuple)
            and len(v) == 2
            and v[0] in PARTS
            and 0 <= v[1] < self._side
        )

    def _check_node(self, v: GxyNode) -> None:
        if not self._is_node(v):
            raise OracleError(f"unknown vertex {v!r}")

    def _reveal(self, i: int, j: int) -> bool:
        """Exchange (and remember) ``x_{i,j}, y_{i,j}``; return intersection."""
        pos = i * self._side + j
        if pos not in self._known:
            self.ledger.charge(
                2, kind="localquery.reveal", payload=(int(i), int(j))
            )
            self._known.add(pos)
        return bool(self._x[pos] and self._y[pos])

    def degree(self, v: GxyNode) -> int:
        """Always ``sqrt(N)`` — zero communication."""
        self._charge("degree")
        self._check_node(v)
        return self._side

    def neighbor(self, v: GxyNode, index: int) -> Optional[GxyNode]:
        """The ``index``-th neighbor under the paper's slot ordering.

        ``a_i``'s ``j``-th neighbor is ``a'_j`` or ``b'_j``; primed
        vertices enumerate their neighbors by left index ``i``.
        """
        self._charge("neighbor")
        self._check_node(v)
        if index < 0:
            raise OracleError("neighbor index must be non-negative")
        if index >= self._side:
            return None
        part, pos = v
        if part in (PART_A, PART_B):
            meets = self._reveal(pos, index)
        else:
            meets = self._reveal(index, pos)
        met, missed = _NEIGHBOR_PARTS[part]
        return (met if meets else missed, index)

    def neighbors(
        self, v: GxyNode, indices: Iterable[int]
    ) -> List[Optional[GxyNode]]:
        """Bulk neighbor queries with :meth:`neighbor`'s answers and bits.

        One call charges all ``len(indices)`` queries, and 2 bits for
        each index pair among them not exchanged before.
        """
        indices = list(map(int, indices))
        if not self._bulk_ok(indices) or not self._is_node(v):
            return super().neighbors(v, indices)
        self.counter.charge("neighbor", len(indices))
        side = self._side
        part, pos = v
        if part in (PART_A, PART_B):
            fresh = {pos * side + j for j in indices if j < side}
            row = slice(pos * side, (pos + 1) * side)
        else:
            fresh = {j * side + pos for j in indices if j < side}
            row = slice(pos, None, side)
        # Telemetry is off on this path, so the charges' order (their
        # wire events' order) is not observable; only their number is.
        fresh -= self._known
        self._known |= fresh
        self.ledger.charge_many(2, "localquery.reveal", fresh)
        meets = np.logical_and(self._x[row], self._y[row]).tolist()
        met, missed = _NEIGHBOR_PARTS[part]
        return [
            ((met if meets[j] else missed), j) if j < side else None
            for j in indices
        ]

    def adjacent(self, u: GxyNode, v: GxyNode) -> bool:
        """Pair query; costs 2 bits only when the answer is string-dependent."""
        self._charge("pair")
        self._check_node(u)
        self._check_node(v)
        for a, b in ((u, v), (v, u)):
            rule = _EDGE_RULES.get((a[0], b[0]))
            if rule is not None:
                unprimed, primed = a, b
                meets = self._reveal(unprimed[1], primed[1])
                return meets == rule
        return False

    @property
    def bits_exchanged(self) -> int:
        """Total communication so far (the Theorem 1.3 currency)."""
        return self.ledger.total_bits
