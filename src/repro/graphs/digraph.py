"""Weighted directed graph with fast cut queries.

:class:`DiGraph` is the central data structure of the library.  All of the
paper's constructions (the Hadamard-encoded bipartite blocks of Section 3,
the Gap-Hamming blocks of Section 4, and the four-part graph
``G_{x,y}`` of Section 5) are materialized as ``DiGraph`` instances, and
every sketch and lower-bound game queries cut values through it.

Design notes
------------
* Nodes are arbitrary hashable labels.  The constructions use structured
  tuples like ``("L", block, index)`` so tests can address parts by name.
* Edges are stored twice (out- and in-adjacency) so that directed cut
  values ``w(S, T)`` can be computed by scanning the smaller side.
* Weights are floats; zero-weight edges are allowed (they still count as
  edges, which matters for the unweighted local-query model, where the
  oracle answers per *edge*, not per unit of weight).
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import ge
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Callable,
    Dict,
    Hashable,
    Iterable,
    ItemsView,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import GraphError
from repro.obs import STATE as _OBS
from repro.obs import count as _obs_count

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graphs.csr import CSRGraph

Node = Hashable
Edge = Tuple[Node, Node]
WeightedEdge = Tuple[Node, Node, float]


class DiGraph:
    """A weighted directed graph (no parallel edges, no self loops)."""

    def __init__(self, nodes: Iterable[Node] = (), edges: Iterable[WeightedEdge] = ()):
        self._succ: Dict[Node, Dict[Node, float]] = {}
        self._pred: Dict[Node, Dict[Node, float]] = {}
        self._num_edges = 0
        # Mutation counter; every cached derived value (the CSR snapshot,
        # the total weight) is stamped with the version it was computed at
        # and recomputed lazily when the stamp goes stale.
        self._version = 0
        self._csr: Optional["CSRGraph"] = None
        self._csr_version = -1
        self._total_weight = 0.0
        self._total_weight_version = -1
        # Version at which copy() built this graph: while it is current,
        # every predecessor dict is ordered by its tails' node order, so
        # the next copy() may clone _pred instead of rebuilding it.
        self._copy_version = -1
        for node in nodes:
            self.add_node(node)
        for u, v, w in edges:
            self.add_edge(u, v, w)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add ``node`` if not present; idempotent."""
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}
            self._version += 1

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        """Add each node in ``nodes``."""
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: Node, v: Node, weight: float, combine: str = "error") -> None:
        """Add directed edge ``u -> v`` with ``weight``.

        ``combine`` controls behaviour when the edge already exists:
        ``"error"`` raises, ``"add"`` sums the weights, ``"set"``
        overwrites.  Endpoints are added implicitly.
        """
        if u == v:
            raise GraphError(f"self loop at {u!r} not allowed")
        if not weight >= 0:  # also rejects NaN
            raise GraphError(f"negative or NaN weight {weight} on ({u!r}, {v!r})")
        self.add_node(u)
        self.add_node(v)
        if v in self._succ[u]:
            if combine == "error":
                raise GraphError(f"edge ({u!r}, {v!r}) already exists")
            if combine == "add":
                weight = self._succ[u][v] + weight
            elif combine != "set":
                raise GraphError(f"unknown combine mode {combine!r}")
        else:
            self._num_edges += 1
        self._succ[u][v] = weight
        self._pred[v][u] = weight
        self._version += 1

    def add_biclique(
        self,
        left: Sequence[Node],
        right: Sequence[Node],
        weights: Sequence[float],
    ) -> None:
        """Add every edge ``left[i] -> right[j]`` in one write.

        Edge ``left[i] -> right[j]`` gets ``weights[i * len(right) + j]``.
        Order contract: the graph ends exactly as the nested loop
        ``for i, u in enumerate(left): for j, v in enumerate(right):
        add_edge(u, v, weights[i * len(right) + j])`` leaves it — same
        node order, same order in every successor and predecessor dict,
        the same weight objects — so cut sums over it add in the loop's
        order.  Everything is validated before anything is written: a
        self loop, a duplicate or already present edge, a negative or
        NaN weight, or a length mismatch raises :class:`GraphError` (the
        loop's message for its first failing edge) and leaves the graph
        unchanged.  The version counter moves once, so a snapshot frozen
        before the call goes stale.
        """
        left, right, values = list(left), list(right), list(weights)
        width = len(right)
        if len(values) != len(left) * width:
            raise GraphError(
                f"a {len(left)} x {width} biclique needs "
                f"{len(left) * width} weights, got {len(values)}"
            )
        if not values:
            return
        succ, pred = self._succ, self._pred
        heads = set(right)
        if not (
            len(heads) == width
            and len(set(left)) == len(left)
            and heads.isdisjoint(left)
            and all(map(ge, values, repeat(0)))  # w >= 0; rejects NaN
            and all(heads.isdisjoint(succ.get(u, ())) for u in left)
        ):
            # Some edge is invalid: the add_edge loop, replayed on a copy,
            # raises its own error for the first one.
            scratch = self.copy()
            for i, u in enumerate(left):
                for j, v in enumerate(right):
                    scratch.add_edge(u, v, values[i * width + j])
        for node in chain(left[:1], right, left[1:]):
            if node not in succ:
                succ[node] = {}
                pred[node] = {}
        for i, u in enumerate(left):
            succ[u].update(zip(right, values[i * width : (i + 1) * width]))
        for j, v in enumerate(right):
            pred[v].update(zip(left, values[j::width]))
        self._num_edges += len(values)
        self._version += 1

    def remove_edge(self, u: Node, v: Node) -> None:
        """Delete edge ``u -> v``; raises if absent."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) does not exist")
        del self._succ[u][v]
        del self._pred[v][u]
        self._num_edges -= 1
        self._version += 1

    def remove_node(self, node: Node) -> None:
        """Delete ``node`` and all incident edges."""
        if node not in self._succ:
            raise GraphError(f"node {node!r} does not exist")
        for v in list(self._succ[node]):
            self.remove_edge(node, v)
        for u in list(self._pred[node]):
            self.remove_edge(u, node)
        del self._succ[node]
        del self._pred[node]
        self._version += 1

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._succ)

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return self._num_edges

    def nodes(self) -> List[Node]:
        """All nodes, in insertion order."""
        return list(self._succ)

    def has_node(self, node: Node) -> bool:
        """Whether ``node`` is present."""
        return node in self._succ

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether directed edge ``u -> v`` is present."""
        return u in self._succ and v in self._succ[u]

    def weight(self, u: Node, v: Node) -> float:
        """Weight of ``u -> v`` (0.0 if the edge is absent)."""
        if u not in self._succ:
            raise GraphError(f"node {u!r} does not exist")
        return self._succ[u].get(v, 0.0)

    def edges(self) -> Iterator[WeightedEdge]:
        """Iterate over ``(u, v, weight)`` triples."""
        for u, nbrs in self._succ.items():
            for v, w in nbrs.items():
                yield (u, v, w)

    def successors(self, node: Node) -> Dict[Node, float]:
        """Out-neighbors of ``node`` mapped to edge weights (a copy)."""
        if node not in self._succ:
            raise GraphError(f"node {node!r} does not exist")
        return dict(self._succ[node])

    def predecessors(self, node: Node) -> Dict[Node, float]:
        """In-neighbors of ``node`` mapped to edge weights (a copy)."""
        if node not in self._pred:
            raise GraphError(f"node {node!r} does not exist")
        return dict(self._pred[node])

    def iter_successors(self, node: Node) -> ItemsView[Node, float]:
        """Live ``(successor, weight)`` view — no copy.

        Internal hot paths (BFS/DFS, CSR snapshotting) use this instead
        of :meth:`successors`, which copies a dict per call.  Callers
        must not mutate the graph while iterating.
        """
        try:
            return self._succ[node].items()
        except KeyError:
            raise GraphError(f"node {node!r} does not exist") from None

    def iter_predecessors(self, node: Node) -> ItemsView[Node, float]:
        """Live ``(predecessor, weight)`` view — no copy."""
        try:
            return self._pred[node].items()
        except KeyError:
            raise GraphError(f"node {node!r} does not exist") from None

    def out_degree(self, node: Node) -> int:
        """Number of out-edges of ``node``."""
        if node not in self._succ:
            raise GraphError(f"node {node!r} does not exist")
        return len(self._succ[node])

    def in_degree(self, node: Node) -> int:
        """Number of in-edges of ``node``."""
        if node not in self._pred:
            raise GraphError(f"node {node!r} does not exist")
        return len(self._pred[node])

    def out_weight(self, node: Node) -> float:
        """Total weight of out-edges of ``node``."""
        if node not in self._succ:
            raise GraphError(f"node {node!r} does not exist")
        return sum(self._succ[node].values())

    def in_weight(self, node: Node) -> float:
        """Total weight of in-edges of ``node``."""
        if node not in self._pred:
            raise GraphError(f"node {node!r} does not exist")
        return sum(self._pred[node].values())

    def total_weight(self) -> float:
        """Sum of all edge weights (cached behind the mutation counter)."""
        if self._total_weight_version != self._version:
            self._total_weight = sum(w for _, _, w in self.edges())
            self._total_weight_version = self._version
        return self._total_weight

    # ------------------------------------------------------------------
    # frozen snapshot
    # ------------------------------------------------------------------
    def freeze(self) -> "CSRGraph":
        """Cached CSR snapshot for batched kernels (see :mod:`repro.graphs.csr`).

        The snapshot is immutable and shared between callers; it is
        rebuilt lazily after any mutation (same mutation counter that
        guards :meth:`total_weight`).  Freeze once, then evaluate many
        cuts in single vectorized passes.
        """
        if self._csr is None or self._csr_version != self._version:
            if _OBS.enabled:
                _obs_count("csr.freeze.miss")
            self._csr = self._snapshot()
            self._csr_version = self._version
        elif _OBS.enabled:
            _obs_count("csr.freeze.hit")
        return self._csr

    def _snapshot(self) -> "CSRGraph":
        from repro.graphs.csr import CSRGraph

        return CSRGraph.from_digraph(self)

    @staticmethod
    def from_snapshot(
        snapshot: "CSRGraph", build: Callable[[], "DiGraph"]
    ) -> "DiGraph":
        """A graph that holds ``snapshot`` and builds its dicts on first read.

        For constructions whose snapshot is cheaper to write than their
        dicts (the lower-bound encoders): a consumer that only freezes
        the graph never pays for the dicts.  ``build()`` must return the
        graph ``snapshot`` was laid out from, so that
        ``CSRGraph.from_digraph(build())`` equals it; the graph takes
        that graph's dicts, in its adjacency order, the first time
        anything reads, copies, pickles or mutates it.  Its first
        ``freeze()`` returns ``snapshot`` and counts the miss the
        snapshot's build stands for.
        """
        graph = _SnapshotFirstDiGraph()
        del graph._succ, graph._pred
        graph._build = build
        graph._num_edges = snapshot.num_edges
        graph._csr = snapshot
        return graph

    # ------------------------------------------------------------------
    # cuts
    # ------------------------------------------------------------------
    def _check_cut_side(self, side: AbstractSet[Node]) -> Set[Node]:
        s = set(side)
        unknown = [node for node in s if node not in self._succ]
        if unknown:
            raise GraphError(f"cut side contains unknown nodes: {unknown[:3]!r}")
        return s

    def cut_weight(self, side: AbstractSet[Node]) -> float:
        """Directed cut value ``w(S, V \\ S)`` for ``S = side``.

        Raises for the trivial cuts ``S = {}`` and ``S = V`` — the paper's
        definitions (2.2/2.3) quantify over non-trivial cuts only.
        """
        s = self._check_cut_side(side)
        if not s or len(s) == self.num_nodes:
            raise GraphError("cut side must be a proper nonempty subset")
        total = 0.0
        if 2 * len(s) <= self.num_nodes:
            for u in s:
                for v, w in self._succ[u].items():
                    if v not in s:
                        total += w
        else:
            # |S| > n/2: scan the complement's in-edges instead — the
            # same sum over E(S, V\S), touching fewer adjacency dicts.
            for v in self._pred:
                if v in s:
                    continue
                for u, w in self._pred[v].items():
                    if u in s:
                        total += w
        return total

    def directed_weight_between(self, src: AbstractSet[Node], dst: AbstractSet[Node]) -> float:
        """Total weight ``w(S, T)`` of edges from ``src`` into ``dst``.

        ``src`` and ``dst`` need not partition ``V`` and may overlap;
        edges inside the overlap are never counted (no self loops).
        """
        s = self._check_cut_side(src)
        t = self._check_cut_side(dst)
        total = 0.0
        for u in s:
            for v, w in self._succ[u].items():
                if v in t:
                    total += w
        return total

    def edges_between(self, src: AbstractSet[Node], dst: AbstractSet[Node]) -> List[WeightedEdge]:
        """The edge set ``E(S, T)`` as a list of weighted edges."""
        s = self._check_cut_side(src)
        t = self._check_cut_side(dst)
        found = []
        for u in s:
            for v, w in self._succ[u].items():
                if v in t:
                    found.append((u, v, w))
        return found

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "DiGraph":
        """Deep copy (nodes and edges).

        Order contract: the copy iterates exactly like the edge-by-edge
        rebuild ``DiGraph(self.nodes(), self.edges())`` — same node
        order, same successor order, and each predecessor dict ordered
        by its tails' node order.  That can differ from this graph's own
        predecessor order, so ``_pred`` is rebuilt — unless this graph is
        itself an unmutated copy, whose predecessor dicts already are in
        that order and are cloned.  Cut sums that scan predecessors
        therefore add in the same order as on the rebuilt graph.
        """
        succ = {u: dict(nbrs) for u, nbrs in self._succ.items()}
        if self._copy_version == self._version:
            pred = {v: dict(nbrs) for v, nbrs in self._pred.items()}
        else:
            pred = {u: {} for u in self._succ}
            for u, nbrs in self._succ.items():
                for v, w in nbrs.items():
                    pred[v][u] = w
        return DiGraph._from_ordered(succ, pred, self._num_edges)

    @staticmethod
    def _from_ordered(
        succ: Dict[Node, Dict[Node, float]],
        pred: Dict[Node, Dict[Node, float]],
        num_edges: int,
    ) -> "DiGraph":
        """A graph owning ``succ`` and ``pred``, stamped as a copy.

        ``pred`` must hold the same edges as ``succ``, each predecessor
        dict ordered by its tails' node order (the order :meth:`copy`
        guarantees).
        """
        out = DiGraph()
        out._succ, out._pred, out._num_edges = succ, pred, num_edges
        out._copy_version = out._version
        return out

    def reverse(self) -> "DiGraph":
        """The graph with every edge direction flipped."""
        return DiGraph(self.nodes(), ((v, u, w) for u, v, w in self.edges()))

    def subgraph(self, keep: AbstractSet[Node]) -> "DiGraph":
        """Induced subgraph on ``keep``."""
        k = self._check_cut_side(keep)
        sub = DiGraph(nodes=k)
        for u, v, w in self.edges():
            if u in k and v in k:
                sub.add_edge(u, v, w)
        return sub

    def scale_weights(self, factor: float) -> "DiGraph":
        """A copy with all weights multiplied by ``factor`` (>= 0)."""
        if factor < 0:
            raise GraphError("scale factor must be non-negative")
        return DiGraph(self.nodes(), ((u, v, w * factor) for u, v, w in self.edges()))

    def __contains__(self, node: Node) -> bool:
        return self.has_node(node)

    def __repr__(self) -> str:
        return f"DiGraph(n={self.num_nodes}, m={self.num_edges})"


class _SnapshotFirstDiGraph(DiGraph):
    """A :meth:`DiGraph.from_snapshot` graph whose dicts are not built yet.

    The attribute-miss hook lives on this class alone: a ``__getattr__``
    on :class:`DiGraph` would slow every attribute read of every graph.
    Reading ``_succ`` or ``_pred`` builds the dicts and turns the graph
    into a plain :class:`DiGraph`.
    """

    def __getattr__(self, name: str):
        if name in ("_succ", "_pred"):
            self._build_dicts()
            return getattr(self, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __reduce_ex__(self, protocol):
        # Pickles and deep copies carry the dicts, never the builder.
        self._build_dicts()
        return self.__reduce_ex__(protocol)

    def _snapshot(self) -> "CSRGraph":
        # The first freeze() serves the prebuilt snapshot as the miss that
        # built it; the graph cannot change until its dicts exist.
        return self._csr

    def _build_dicts(self) -> None:
        built = self._build()
        self._succ, self._pred = built._succ, built._pred
        del self._build
        # The snapshot stays current; a later mutation stales it.
        self._csr_version = self._version
        self.__class__ = DiGraph
