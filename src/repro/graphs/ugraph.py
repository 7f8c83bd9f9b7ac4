"""Weighted undirected graph.

Used for the local-query part of the paper (Section 5, where graphs are
undirected and unweighted — weight 1.0 per edge) and as the
symmetrization target when sparsifying balanced digraphs.

Contraction (:meth:`UGraph.contracted`) is provided for Karger's algorithm
and Stoer–Wagner, both of which merge vertices while summing parallel
edge weights.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    ItemsView,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.errors import GraphError
from repro.obs import STATE as _OBS
from repro.obs import count as _obs_count

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graphs.csr import CSRGraph

Node = Hashable
WeightedEdge = Tuple[Node, Node, float]


class UGraph:
    """A weighted undirected graph (no parallel edges, no self loops).

    Parallel edges supplied at construction are merged by weight addition,
    which is the correct semantics for cut values.
    """

    def __init__(self, nodes: Iterable[Node] = (), edges: Iterable[WeightedEdge] = ()):
        self._adj: Dict[Node, Dict[Node, float]] = {}
        self._num_edges = 0
        # Mutation counter guarding cached derived values (CSR snapshot,
        # total weight) — mirrors DiGraph.
        self._version = 0
        self._csr: Optional["CSRGraph"] = None
        self._csr_version = -1
        self._total_weight = 0.0
        self._total_weight_version = -1
        for node in nodes:
            self.add_node(node)
        for u, v, w in edges:
            self.add_edge(u, v, w, combine="add")

    def add_node(self, node: Node) -> None:
        """Add ``node`` if not present; idempotent."""
        if node not in self._adj:
            self._adj[node] = {}
            self._version += 1

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        """Add each node in ``nodes``."""
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: Node, v: Node, weight: float = 1.0, combine: str = "error") -> None:
        """Add undirected edge ``{u, v}``; see :meth:`DiGraph.add_edge`."""
        if u == v:
            raise GraphError(f"self loop at {u!r} not allowed")
        if not weight >= 0:  # also rejects NaN
            raise GraphError(
                f"negative or NaN weight {weight} on {{{u!r}, {v!r}}}"
            )
        self.add_node(u)
        self.add_node(v)
        if v in self._adj[u]:
            if combine == "error":
                raise GraphError(f"edge {{{u!r}, {v!r}}} already exists")
            if combine == "add":
                weight = self._adj[u][v] + weight
            elif combine != "set":
                raise GraphError(f"unknown combine mode {combine!r}")
        else:
            self._num_edges += 1
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        self._version += 1

    def remove_edge(self, u: Node, v: Node) -> None:
        """Delete edge ``{u, v}``; raises if absent."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge {{{u!r}, {v!r}}} does not exist")
        del self._adj[u][v]
        del self._adj[v][u]
        self._num_edges -= 1
        self._version += 1

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._num_edges

    def nodes(self) -> List[Node]:
        """All nodes, in insertion order."""
        return list(self._adj)

    def has_node(self, node: Node) -> bool:
        """Whether ``node`` is present."""
        return node in self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether edge ``{u, v}`` is present."""
        return u in self._adj and v in self._adj[u]

    def weight(self, u: Node, v: Node) -> float:
        """Weight of ``{u, v}`` (0.0 if absent)."""
        if u not in self._adj:
            raise GraphError(f"node {u!r} does not exist")
        return self._adj[u].get(v, 0.0)

    def edges(self) -> Iterator[WeightedEdge]:
        """Iterate each undirected edge once as ``(u, v, weight)``."""
        seen: Set[FrozenSet[Node]] = set()
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    yield (u, v, w)

    def neighbors(self, node: Node) -> Dict[Node, float]:
        """Neighbors of ``node`` mapped to edge weights (a copy)."""
        if node not in self._adj:
            raise GraphError(f"node {node!r} does not exist")
        return dict(self._adj[node])

    def iter_neighbors(self, node: Node) -> ItemsView[Node, float]:
        """Live ``(neighbor, weight)`` view — no copy (internal hot paths).

        Callers must not mutate the graph while iterating.
        """
        try:
            return self._adj[node].items()
        except KeyError:
            raise GraphError(f"node {node!r} does not exist") from None

    def degree(self, node: Node) -> int:
        """Number of incident edges."""
        if node not in self._adj:
            raise GraphError(f"node {node!r} does not exist")
        return len(self._adj[node])

    def weighted_degree(self, node: Node) -> float:
        """Total weight of incident edges."""
        if node not in self._adj:
            raise GraphError(f"node {node!r} does not exist")
        return sum(self._adj[node].values())

    def total_weight(self) -> float:
        """Sum of all edge weights (cached behind the mutation counter)."""
        if self._total_weight_version != self._version:
            self._total_weight = sum(w for _, _, w in self.edges())
            self._total_weight_version = self._version
        return self._total_weight

    def freeze(self) -> "CSRGraph":
        """Cached CSR snapshot (see :mod:`repro.graphs.csr`).

        Stores each undirected edge in both directions, so the directed
        cut kernels on the snapshot compute undirected cut values.
        Rebuilt lazily after mutation.
        """
        from repro.graphs.csr import CSRGraph

        if self._csr is None or self._csr_version != self._version:
            if _OBS.enabled:
                _obs_count("csr.freeze.miss")
            self._csr = CSRGraph.from_ugraph(self)
            self._csr_version = self._version
        elif _OBS.enabled:
            _obs_count("csr.freeze.hit")
        return self._csr

    def cut_weight(self, side: AbstractSet[Node]) -> float:
        """Undirected cut value ``w(S, V \\ S)`` (scans the smaller side)."""
        s = set(side)
        unknown = [node for node in s if node not in self._adj]
        if unknown:
            raise GraphError(f"cut side contains unknown nodes: {unknown[:3]!r}")
        if not s or len(s) == self.num_nodes:
            raise GraphError("cut side must be a proper nonempty subset")
        total = 0.0
        if 2 * len(s) <= self.num_nodes:
            for u in s:
                for v, w in self._adj[u].items():
                    if v not in s:
                        total += w
        else:
            # The cut is symmetric; scan the smaller complement instead.
            for u in self._adj:
                if u in s:
                    continue
                for v, w in self._adj[u].items():
                    if v in s:
                        total += w
        return total

    def copy(self) -> "UGraph":
        """Deep copy.

        Order contract: the copy iterates exactly like the edge-by-edge
        rebuild ``UGraph(self.nodes(), self.edges())`` — same node order,
        and each neighbour dict lists the neighbours that come earlier in
        node order first (in node order), then the later ones in this
        graph's own order, which is the order :meth:`edges` meets them.
        """
        out = UGraph()
        adj: Dict[Node, Dict[Node, float]] = {u: {} for u in self._adj}
        for u, nbrs in self._adj.items():
            row = adj[u]
            for v, w in nbrs.items():
                if v not in row:
                    row[v] = w
                    adj[v][u] = w
        out._adj = adj
        out._num_edges = self._num_edges
        return out

    def subgraph(self, keep: AbstractSet[Node]) -> "UGraph":
        """Induced subgraph on ``keep``."""
        k = set(keep)
        unknown = [node for node in k if node not in self._adj]
        if unknown:
            raise GraphError(f"unknown nodes: {unknown[:3]!r}")
        sub = UGraph(nodes=k)
        for u, v, w in self.edges():
            if u in k and v in k:
                sub.add_edge(u, v, w)
        return sub

    def contracted(self, u: Node, v: Node) -> "UGraph":
        """Return a copy with ``v`` merged into ``u``.

        Parallel edges created by the merge are combined by weight
        addition; the ``{u, v}`` edge (if any) disappears, exactly as in
        Karger contraction.
        """
        if u == v:
            raise GraphError("cannot contract a node with itself")
        if u not in self._adj or v not in self._adj:
            raise GraphError("both endpoints must exist")
        out = self.copy()
        for nbr, w in list(out._adj[v].items()):
            out.remove_edge(v, nbr)
            if nbr != u:
                out.add_edge(u, nbr, w, combine="add")
        del out._adj[v]
        out._version += 1
        return out

    def connected_components(self) -> List[Set[Node]]:
        """Connected components as node sets."""
        remaining = set(self._adj)
        comps: List[Set[Node]] = []
        while remaining:
            root = next(iter(remaining))
            comp = {root}
            stack = [root]
            while stack:
                cur = stack.pop()
                for nbr in self._adj[cur]:
                    if nbr not in comp:
                        comp.add(nbr)
                        stack.append(nbr)
            comps.append(comp)
            remaining -= comp
        return comps

    def is_connected(self) -> bool:
        """Whether the graph is connected (empty graph counts as connected)."""
        return self.num_nodes <= 1 or len(self.connected_components()) == 1

    def __contains__(self, node: Node) -> bool:
        return self.has_node(node)

    def __repr__(self) -> str:
        return f"UGraph(n={self.num_nodes}, m={self.num_edges})"


def symmetrize(digraph) -> UGraph:
    """Undirected view of a :class:`~repro.graphs.digraph.DiGraph`.

    Each undirected edge gets weight ``w(u, v) + w(v, u)``, the
    symmetrization used by balanced-digraph sparsifiers (CCPS21 reduce the
    directed problem to sparsifying this undirected graph).
    """
    out = UGraph(nodes=digraph.nodes())
    for u, v, w in digraph.edges():
        out.add_edge(u, v, w, combine="add")
    return out
