"""The local query model (Section 1/5): degree, neighbor, pair queries.

The vertex set is public; the edge set is hidden behind an oracle that
answers exactly three query types:

1. degree(v)        -> deg(v)
2. neighbor(v, i)   -> the i-th neighbor of v, or None past the degree
3. adjacent(u, v)   -> whether {u, v} is an edge

:class:`GraphOracle` serves these from a concrete :class:`UGraph` with a
deterministic neighbor ordering and counts every query — the count is
the complexity measure of Theorem 1.3.  An optional budget turns
overruns into :class:`BudgetExceededError`, which the lower-bound
experiments use for failure injection.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Optional

from repro.errors import BudgetExceededError, OracleError
from repro.graphs.ugraph import Node, UGraph
from repro.obs import STATE as _OBS
from repro.obs import capture as _capture
from repro.obs import count as _obs_count
from repro.obs import memory as _obs_memory
from repro.obs.metrics import Counter, MetricsRegistry

#: The three query types of the Section 5 model, in namespace order.
QUERY_KINDS = ("degree", "neighbor", "pair")


class QueryCounter:
    """Per-type and total query tallies, backed by obs counters.

    Historically a plain dataclass of three ints; now a thin shim over a
    private :class:`~repro.obs.metrics.MetricsRegistry` so the same
    Counter objects feed both the theorem's complexity measure (always
    on — this is the measured quantity of Theorem 1.3) and, when the
    global telemetry switch is enabled, the unified ``oracle.query.*``
    namespace.  The public ``degree_queries`` / ``neighbor_queries`` /
    ``pair_queries`` / ``total`` / ``reset()`` API is unchanged.
    """

    __slots__ = ("registry", "_by_kind")

    def __init__(
        self,
        degree_queries: int = 0,
        neighbor_queries: int = 0,
        pair_queries: int = 0,
    ):
        self.registry = MetricsRegistry()
        self._by_kind: Dict[str, Counter] = {
            kind: self.registry.counter(f"oracle.query.{kind}")
            for kind in QUERY_KINDS
        }
        self._by_kind["degree"].inc(degree_queries)
        self._by_kind["neighbor"].inc(neighbor_queries)
        self._by_kind["pair"].inc(pair_queries)

    def charge(self, kind: str, count: int = 1) -> None:
        """Count ``count`` queries of ``kind``; unknown kinds raise OracleError.

        Mirrors the charge into the global ``oracle.query.<kind>``
        counter when telemetry is enabled.
        """
        counter = self._by_kind.get(kind)
        if counter is None:
            raise OracleError(f"unknown query kind {kind!r}")
        counter.inc(count)
        if _OBS.enabled:
            _obs_count(f"oracle.query.{kind}", count)

    @property
    def degree_queries(self) -> int:
        """Degree queries charged so far."""
        return self._by_kind["degree"].value

    @property
    def neighbor_queries(self) -> int:
        """Neighbor (edge) queries charged so far."""
        return self._by_kind["neighbor"].value

    @property
    def pair_queries(self) -> int:
        """Adjacency (pair) queries charged so far."""
        return self._by_kind["pair"].value

    @property
    def total(self) -> int:
        """All queries of all three types."""
        return sum(counter.value for counter in self._by_kind.values())

    def reset(self) -> None:
        """Zero every tally."""
        self.registry.reset()

    def __repr__(self) -> str:
        return (
            f"QueryCounter(degree_queries={self.degree_queries}, "
            f"neighbor_queries={self.neighbor_queries}, "
            f"pair_queries={self.pair_queries})"
        )


class LocalQueryOracle(ABC):
    """Abstract interface of the Section 5 query model."""

    def __init__(self, budget: Optional[int] = None):
        self.counter = QueryCounter()
        self.budget = budget

    def _charge(self, kind: str) -> None:
        self.counter.charge(kind)
        if _OBS.enabled:
            # Queries are free in Theorem 1.3's bit accounting (only the
            # Lemma 5.6 ledger charges cost bits), but each one is still
            # a wire event so transcripts replay query-by-query.
            _capture.record("algorithm", "oracle", f"oracle.{kind}", 0)
        if self.budget is not None and self.counter.total > self.budget:
            if _OBS.enabled:
                _obs_count("oracle.budget_overrun")
            raise BudgetExceededError(
                f"query budget of {self.budget} exceeded"
            )

    @property
    @abstractmethod
    def vertices(self) -> List[Node]:
        """The public vertex set."""

    @abstractmethod
    def degree(self, v: Node) -> int:
        """Degree query."""

    @abstractmethod
    def neighbor(self, v: Node, index: int) -> Optional[Node]:
        """Edge (neighbor) query: the ``index``-th neighbor, 0-based.

        Returns ``None`` (the paper's bottom) when ``index >= deg(v)``.
        """

    @abstractmethod
    def adjacent(self, u: Node, v: Node) -> bool:
        """Adjacency (pair) query."""

    def neighbors(self, v: Node, indices: Iterable[int]) -> List[Optional[Node]]:
        """One neighbor query per entry of ``indices``, answers in order.

        This loop is the specification.  Subclasses may answer a whole
        batch at once, but must leave every observable the loop leaves:
        the answers, the tallies, any side accounting, and the point at
        which a budget overrun or a bad argument raises, after the same
        charges.  They may simply take the loop whenever a budget is
        set or telemetry is on, where each query is its own event.
        """
        return [self.neighbor(v, int(index)) for index in indices]

    def _bulk_ok(self, indices: List[int]) -> bool:
        """Whether a batch may skip the loop: no budget, no telemetry,
        and no negative index (whose error the loop raises mid-batch)."""
        return (
            self.budget is None
            and not _OBS.enabled
            and (not indices or min(indices) >= 0)
        )


class GraphOracle(LocalQueryOracle):
    """A counting oracle over a concrete unweighted graph.

    Neighbor order is the sorted order of the neighbor labels, fixed at
    construction, so repeated queries are consistent (and algorithms
    cannot extract extra information from ordering drift).
    """

    def __init__(self, graph: UGraph, budget: Optional[int] = None):
        super().__init__(budget=budget)
        self._graph = graph.copy()
        self._order: Dict[Node, List[Node]] = {
            v: sorted(graph.neighbors(v), key=repr)
            for v in graph.nodes()
        }
        if _OBS.enabled and _obs_memory.active() is not None:
            # The oracle's resident working set (graph copy + neighbor
            # order) is what the Thm 1.3 space companion certifies
            # against the O(m log n) edge-list envelope.
            _obs_memory.observe_footprint(self, metric="memory.graph_bytes")

    @property
    def vertices(self) -> List[Node]:
        return self._graph.nodes()

    @property
    def num_edges(self) -> int:
        """Ground-truth edge count (not a query; used by harnesses)."""
        return self._graph.num_edges

    def degree(self, v: Node) -> int:
        self._charge("degree")
        return self._graph.degree(v)

    def neighbor(self, v: Node, index: int) -> Optional[Node]:
        self._charge("neighbor")
        if index < 0:
            raise OracleError("neighbor index must be non-negative")
        order = self._order.get(v)
        if order is None:
            raise OracleError(f"unknown vertex {v!r}")
        if index >= len(order):
            return None
        return order[index]

    def neighbors(self, v: Node, indices: Iterable[int]) -> List[Optional[Node]]:
        """Bulk neighbor queries: one charge of ``len(indices)`` queries."""
        indices = list(map(int, indices))
        order = self._order.get(v)
        if order is None or not self._bulk_ok(indices):
            return super().neighbors(v, indices)
        self.counter.charge("neighbor", len(indices))
        size = len(order)
        return [order[i] if i < size else None for i in indices]

    def adjacent(self, u: Node, v: Node) -> bool:
        self._charge("pair")
        return self._graph.has_edge(u, v)
