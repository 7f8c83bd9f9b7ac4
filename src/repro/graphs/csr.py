"""Frozen CSR snapshots with vectorized, batched cut kernels.

Every headline artifact of the reproduction — the Theta(2^n) ground-truth
cut enumerations, the for-each/for-all decoders' cut probes, balance
scans, and sparsifier-quality sweeps — evaluates *many cuts against one
fixed graph*.  The dict-of-dicts :class:`~repro.graphs.digraph.DiGraph`
is the right structure while a graph is being built; once it is fixed,
that shape is exactly what NumPy batch kernels excel at.

:class:`CSRGraph` is an immutable integer-indexed snapshot:

* node labels interned to ``0..n-1`` (insertion order preserved);
* flat edge arrays ``tails``/``heads``/``weights`` plus CSR index
  pointers for both out- and in-adjacency;
* batched kernels — :meth:`cut_weights` evaluates ``K`` cuts in one
  vectorized pass over a boolean membership matrix (no per-cut Python
  loop), :meth:`cut_weights_both` returns both orientations for balance
  scans, :meth:`weights_between` handles ``w(S, T)`` block queries;
* degree/weight vectors for :mod:`repro.graphs.balance`;
* an integer-indexed Dinic fast path (:meth:`max_flow`) over a cached
  :class:`ResidualNetwork` — flat residual arc arrays built once from
  the snapshot, reset (not rebuilt) across the repeated flow calls of
  global min-cut / Gomory–Hu, and executed by the runtime-selected
  kernel backend (:mod:`repro.kernels`).

Obtain snapshots through :meth:`DiGraph.freeze` /
:meth:`UGraph.freeze`, which cache them behind a mutation counter; the
dict-path methods remain the reference implementation that the
hypothesis equivalence suite checks the kernels against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
from operator import itemgetter
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    ItemsView,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import GraphError
from repro.graphs.digraph import DiGraph
from repro.obs import STATE as _OBS
from repro.obs import count as _obs_count
from repro.obs import memory as _obs_memory
from repro.obs import observe as _obs_observe

Node = Hashable

#: Bool cells (rows x edges) processed per kernel chunk; bounds peak
#: memory of a batched call to a few tens of megabytes regardless of K.
_BATCH_CELL_BUDGET = 1 << 23

#: Above this node count the dense adjacency fast path is skipped and the
#: batch kernels fall back to per-edge gathers (n^2 floats get too big).
_DENSE_N_LIMIT = 2048


@dataclass(frozen=True, eq=False)
class CSRFlowResult:
    """Integer-indexed outcome of :meth:`CSRGraph.max_flow`."""

    value: float
    #: Indices residual-reachable from the source — a min s-t cut side.
    source_side: FrozenSet[int]
    #: This solve's flow per snapshot edge, aligned with ``tails``/``heads``
    #: (a copy: the next solve on the same network resets the network).
    flows: np.ndarray = field(repr=False)

    @cached_property
    def edge_flows(self) -> List[float]:
        """:attr:`flows` as a list, built on first read."""
        return self.flows.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, CSRFlowResult):
            return NotImplemented
        return (
            self.value == other.value
            and self.source_side == other.source_side
            and np.array_equal(self.flows, other.flows)
        )


class ResidualNetwork:
    """Reusable flat residual arc arrays for Dinic over one snapshot.

    Snapshot edge ``e`` owns forward arc ``2e`` and reverse arc
    ``2e + 1`` (the reverse of arc ``a`` is always ``a ^ 1``);
    ``indptr``/``adj`` flatten the per-node arc lists in the order the
    pre-kernel implementation appended them (edge by edge: forward arc
    to the tail's list, reverse arc to the head's), so kernel traversal
    order — and therefore every flow value and residual cut — is
    bit-identical to the original per-call construction.

    The arrays are allocated once per snapshot and cached on the
    :class:`CSRGraph`; :meth:`reset` zeroes the flow vector so the
    ``n - 1`` flow calls of global min-cut and the Gomory–Hu sweep reuse
    one allocation instead of rebuilding adjacency every call.  They are
    only ever written in place, so :attr:`addresses` (their data
    addresses, in :data:`ARRAYS` order) is taken once, here and on
    unpickling, and a compiled kernel backend passes it straight on.
    """

    #: The flat arrays, in the order of :attr:`addresses`.
    ARRAYS = (
        "indptr",
        "adj",
        "arc_head",
        "arc_cap",
        "arc_flow",
        "level",
        "iters",
        "stack",
        "path",
        "queue",
        "seen",
    )

    __slots__ = ARRAYS + ("solves", "addresses")

    def __init__(
        self,
        tails: np.ndarray,
        heads: np.ndarray,
        weights: np.ndarray,
        num_nodes: int,
    ):
        n = num_nodes
        m = int(tails.size)
        self.arc_head = np.empty(2 * m, dtype=np.int64)
        self.arc_head[0::2] = heads
        self.arc_head[1::2] = tails
        self.arc_cap = np.zeros(2 * m, dtype=np.float64)
        self.arc_cap[0::2] = weights
        self.arc_flow = np.zeros(2 * m, dtype=np.float64)
        # Arc ids increase in append order per owner, so a stable sort
        # of arc ids by owning node reproduces the per-node arc lists.
        owners = np.empty(2 * m, dtype=np.int64)
        owners[0::2] = tails
        owners[1::2] = heads
        self.adj = np.ascontiguousarray(
            np.argsort(owners, kind="stable"), dtype=np.int64
        )
        counts = np.bincount(owners, minlength=n)
        self.indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        # Kernel scratch, reused across calls: a blocking-flow DFS walks
        # a simple path (levels strictly increase), so n-sized vectors
        # bound every stack/queue/path the kernels touch.
        self.level = np.zeros(n, dtype=np.int64)
        self.iters = np.zeros(n, dtype=np.int64)
        self.queue = np.zeros(n, dtype=np.int64)
        self.stack = np.zeros(n + 1, dtype=np.int64)
        self.path = np.zeros(max(n, 1), dtype=np.int64)
        self.seen = np.zeros(n, dtype=np.uint8)
        #: Number of :meth:`reset` cycles served (telemetry / tests).
        self.solves = 0
        self.addresses = self._addresses()

    def _addresses(self) -> Tuple[int, ...]:
        return tuple(getattr(self, name).ctypes.data for name in self.ARRAYS)

    def __getstate__(self):
        # Addresses belong to one process; an unpickled copy takes its own.
        return {name: getattr(self, name) for name in self.ARRAYS + ("solves",)}

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self.addresses = self._addresses()

    def reset(self) -> None:
        """Zero the flow vector, readying the network for another solve."""
        self.arc_flow[:] = 0.0
        self.solves += 1


def _edge_arrays(
    labels: List[Node], rows: List[ItemsView[Node, float]]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(tails, heads, weights)`` of live per-node ``(head, weight)`` views.

    Edges are laid out row by row in each row's own order, the order
    the per-arc loop wrote them in; the rows are read, not copied.
    """
    index = {label: i for i, label in enumerate(labels)}
    degrees = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    m = int(degrees.sum())
    tails = np.repeat(np.arange(len(labels), dtype=np.int64), degrees)
    heads = np.fromiter(
        map(index.__getitem__, map(itemgetter(0), chain.from_iterable(rows))),
        dtype=np.int64,
        count=m,
    )
    weights = np.fromiter(
        map(itemgetter(1), chain.from_iterable(rows)),
        dtype=np.float64,
        count=m,
    )
    return tails, heads, weights


class CSRGraph:
    """Immutable CSR snapshot of a directed graph with batch kernels.

    Construct via :meth:`from_digraph` / :meth:`from_ugraph` (or the
    caching wrappers ``DiGraph.freeze()`` / ``UGraph.freeze()``).  The
    undirected snapshot stores each edge in both directions, so the
    forward cut kernel returns undirected cut values.
    """

    __slots__ = (
        "_labels",
        "_index",
        "_tails",
        "_heads",
        "_weights",
        "_indptr",
        "_rindptr",
        "_rindices",
        "_rweights",
        "_total_weight",
        "_dense",
        "_residual",
    )

    def __init__(
        self,
        labels: Sequence[Node],
        tails: np.ndarray,
        heads: np.ndarray,
        weights: np.ndarray,
    ):
        self._labels: Tuple[Node, ...] = tuple(labels)
        self._index: Dict[Node, int] = {
            label: i for i, label in enumerate(self._labels)
        }
        if len(self._index) != len(self._labels):
            raise GraphError("duplicate node labels in CSR snapshot")
        n = len(self._labels)
        self._tails = np.ascontiguousarray(tails, dtype=np.int64)
        self._heads = np.ascontiguousarray(heads, dtype=np.int64)
        self._weights = np.ascontiguousarray(weights, dtype=np.float64)
        if not (self._tails.shape == self._heads.shape == self._weights.shape):
            raise GraphError("edge arrays must have equal length")
        if self._tails.size and (
            self._tails.min() < 0
            or self._tails.max() >= n
            or self._heads.min() < 0
            or self._heads.max() >= n
        ):
            raise GraphError("edge endpoint index out of range")
        # Out-CSR: construction orders edges by tail, so indptr is a
        # prefix sum of out-degrees; in-CSR comes from a stable argsort.
        counts = np.bincount(self._tails, minlength=n)
        self._indptr = np.concatenate(([0], np.cumsum(counts)))
        order = np.argsort(self._heads, kind="stable")
        rcounts = np.bincount(self._heads, minlength=n)
        self._rindptr = np.concatenate(([0], np.cumsum(rcounts)))
        self._rindices = self._tails[order]
        self._rweights = self._weights[order]
        self._total_weight = float(self._weights.sum())
        self._dense: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._residual: Optional[ResidualNetwork] = None
        if _OBS.enabled and _obs_memory.active() is not None:
            # Measured resident bytes of the snapshot (arrays + label
            # index), recorded as a footprint event.
            _obs_memory.observe_footprint(self, metric="memory.graph_bytes")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_digraph(cls, graph) -> "CSRGraph":
        """Snapshot a :class:`~repro.graphs.digraph.DiGraph`."""
        labels = graph.nodes()
        return cls._from_rows(labels, [graph.iter_successors(u) for u in labels])

    @classmethod
    def from_ugraph(cls, graph) -> "CSRGraph":
        """Snapshot a :class:`~repro.graphs.ugraph.UGraph`.

        Each undirected edge is stored in both directions, so directed
        kernels on the snapshot compute undirected cut quantities.
        """
        labels = graph.nodes()
        return cls._from_rows(labels, [graph.iter_neighbors(u) for u in labels])

    @classmethod
    def _from_rows(
        cls, labels: List[Node], rows: List[ItemsView[Node, float]]
    ) -> "CSRGraph":
        """Snapshot from live per-node ``(head, weight)`` views in label order."""
        return cls(labels, *_edge_arrays(labels, rows))

    def to_digraph(self) -> DiGraph:
        """A dict :class:`~repro.graphs.digraph.DiGraph` of this snapshot.

        Ordered exactly as ``DiGraph.copy()`` of the frozen graph:
        successors in CSR row order (the frozen graph's own order),
        predecessors in in-CSR order (tails in node order, the order
        ``copy()`` rebuilds).  Weights are Python floats, so cut sums
        over it equal the copy's.
        """
        labels = self._labels

        def rows(neighbors: np.ndarray, weights: np.ndarray, indptr: np.ndarray):
            pairs = zip(map(labels.__getitem__, neighbors.tolist()), weights.tolist())
            return {
                label: dict(islice(pairs, degree))
                for label, degree in zip(labels, np.diff(indptr).tolist())
            }

        return DiGraph._from_ordered(
            rows(self._heads, self._weights, self._indptr),
            rows(self._rindices, self._rweights, self._rindptr),
            self.num_edges,
        )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of directed edges in the snapshot."""
        return int(self._tails.size)

    @property
    def labels(self) -> Tuple[Node, ...]:
        """Node labels in interning order (index ``i`` -> ``labels[i]``)."""
        return self._labels

    @property
    def tails(self) -> np.ndarray:
        """Edge tail indices (read-only view)."""
        return self._tails

    @property
    def heads(self) -> np.ndarray:
        """Edge head indices (read-only view)."""
        return self._heads

    @property
    def weights(self) -> np.ndarray:
        """Edge weights aligned with :attr:`tails`/:attr:`heads`."""
        return self._weights

    @property
    def indptr(self) -> np.ndarray:
        """Out-CSR row pointers: node ``i``'s edges are ``indptr[i]:indptr[i + 1]``.

        Snapshots from ``freeze()`` lay each row out in the order of the
        node's adjacency dict.
        """
        return self._indptr

    def index_of(self, node: Node) -> int:
        """Interned index of ``node``."""
        try:
            return self._index[node]
        except KeyError:
            raise GraphError(f"node {node!r} not in CSR snapshot") from None

    def node_at(self, index: int) -> Node:
        """Label of interned ``index``."""
        return self._labels[index]

    def total_weight(self) -> float:
        """Sum of all edge weights in the snapshot."""
        return self._total_weight

    # ------------------------------------------------------------------
    # membership handling
    # ------------------------------------------------------------------
    def membership_matrix(
        self, sides: Sequence[AbstractSet[Node]]
    ) -> np.ndarray:
        """Boolean ``(K, n)`` matrix: row ``k`` is the indicator of side ``k``.

        Every label of the batch is resolved in one pass and set with one
        flat scatter.  Raises :class:`GraphError` naming the first label
        absent from the snapshot (mirroring the dict path's unknown-node
        check).
        """
        n = self.num_nodes
        sizes = np.fromiter(map(len, sides), dtype=np.int64, count=len(sides))
        index = self._index
        try:
            columns = np.fromiter(
                map(index.__getitem__, chain.from_iterable(sides)),
                dtype=np.int64,
                count=int(sizes.sum()),
            )
        except KeyError:
            # Re-scan in batch order so the message names the first
            # unknown node, as a node-by-node fill would.
            unknown = next(
                node for side in sides for node in side if node not in index
            )
            raise GraphError(
                f"cut side contains unknown nodes: [{unknown!r}]"
            ) from None
        member = np.zeros((len(sides), n), dtype=bool)
        row_starts = np.arange(len(sides), dtype=np.int64) * n
        member.reshape(-1)[np.repeat(row_starts, sizes) + columns] = True
        return member

    def reindex_membership(
        self, labels: Sequence[Node], member: np.ndarray
    ) -> np.ndarray:
        """``member``'s rows, whose columns follow ``labels``, in this
        snapshot's column order.

        ``labels`` are distinct.  Returns ``member`` itself when they
        equal :attr:`labels` (the mapping is the identity).  Otherwise
        labels absent from the snapshot may head only all-False columns;
        a row holding one raises :class:`GraphError`, as
        :meth:`membership_matrix` does for an unknown node.
        """
        member = np.asarray(member, dtype=bool)
        if member.ndim != 2 or member.shape[1] != len(labels):
            raise GraphError(f"membership matrix must have {len(labels)} columns")
        if tuple(labels) == self._labels:
            return member
        index = self._index
        columns = np.fromiter(
            (index.get(label, -1) for label in labels),
            dtype=np.int64,
            count=len(labels),
        )
        known = columns >= 0
        used_unknown = np.flatnonzero(~known & member.any(axis=0))
        if used_unknown.size:
            raise GraphError(
                "cut side contains unknown nodes: "
                f"[{labels[int(used_unknown[0])]!r}]"
            )
        out = np.zeros((member.shape[0], self.num_nodes), dtype=bool)
        out[:, columns[known]] = member[:, known]
        return out

    def side_from_row(self, row: np.ndarray) -> FrozenSet[Node]:
        """Inverse of :meth:`membership_matrix` for one row."""
        return frozenset(self._labels[i] for i in np.flatnonzero(row))

    def _as_membership(self, membership) -> Tuple[np.ndarray, bool]:
        member = np.asarray(membership, dtype=bool)
        single = member.ndim == 1
        if single:
            member = member[None, :]
        if member.ndim != 2 or member.shape[1] != self.num_nodes:
            raise GraphError(
                f"membership matrix must have {self.num_nodes} columns"
            )
        return member, single

    def check_proper(self, membership) -> None:
        """Raise unless every row is a proper nonempty subset of ``V``.

        The dict path's ``cut_weight`` rejects the trivial cuts; batched
        callers that want the same contract call this first.
        """
        member, _ = self._as_membership(membership)
        sizes = member.sum(axis=1)
        if np.any(sizes == 0) or np.any(sizes == self.num_nodes):
            raise GraphError("cut side must be a proper nonempty subset")

    # ------------------------------------------------------------------
    # batched cut kernels
    # ------------------------------------------------------------------
    @staticmethod
    def _obs_kernel(kernel: str, rows: int, dense: bool) -> None:
        """Telemetry for one batched kernel call (caller checks enabled).

        Records the call, the batch width, and which evaluation path ran
        — exactly the knobs that decide kernel throughput.
        """
        _obs_count(f"csr.{kernel}.calls")
        _obs_count(f"csr.{kernel}.rows", rows)
        _obs_observe("csr.batch_rows", rows)
        _obs_count("csr.path.dense" if dense else "csr.path.gather")

    def _chunk_rows(self, k: int) -> int:
        per_row = max(1, self.num_edges)
        return max(1, _BATCH_CELL_BUDGET // per_row)

    def _dense_parts(
        self,
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Lazily built ``(W, w_out, w_in)`` dense adjacency, or ``None``.

        With the (K, n) float membership matrix ``M`` the forward cut is
        the bilinear form ``diag(M W (1 - M)^T) = M w_out - (M W) . M``,
        one BLAS matmul for the whole batch instead of per-edge gathers.
        Skipped above :data:`_DENSE_N_LIMIT` nodes, where n^2 floats
        outgrow the edge arrays.
        """
        if self.num_nodes > _DENSE_N_LIMIT:
            return None
        if self._dense is None:
            adjacency = self.adjacency_matrix()
            self._dense = (
                adjacency,
                adjacency.sum(axis=1),
                adjacency.sum(axis=0),
            )
        return self._dense

    def adjacency_matrix(self) -> np.ndarray:
        """A new dense ``(n, n)`` matrix with ``W[tail, head]`` = weight.

        The caller owns it (Stoer–Wagner merges its rows in place).
        Raises :class:`GraphError` above :data:`_DENSE_N_LIMIT` nodes
        instead of allocating ``8 n^2`` bytes.
        """
        n = self.num_nodes
        if n > _DENSE_N_LIMIT:
            raise GraphError(
                f"dense adjacency is limited to {_DENSE_N_LIMIT} nodes; "
                f"this graph has {n}"
            )
        adjacency = np.zeros((n, n), dtype=np.float64)
        # add.at tolerates duplicate (tail, head) pairs from direct
        # constructor calls; the from_* paths never produce them.
        np.add.at(adjacency, (self._tails, self._heads), self._weights)
        return adjacency

    def _dense_chunk_rows(self) -> int:
        # Per row the dense path materialises two (chunk, n) float blocks.
        return max(1, _BATCH_CELL_BUDGET // max(1, 2 * self.num_nodes))

    def cut_weights(self, membership) -> np.ndarray:
        """Directed cut values ``w(S_k, V \\ S_k)`` for ``K`` cuts at once.

        ``membership`` is a boolean ``(K, n)`` matrix (or a single
        ``(n,)`` row, in which case a scalar is returned).  Trivial rows
        are allowed and evaluate to 0; callers wanting ``cut_weight``'s
        strictness should :meth:`check_proper` first.
        """
        member, single = self._as_membership(membership)
        k = member.shape[0]
        out = np.empty(k, dtype=np.float64)
        dense = self._dense_parts()
        if _OBS.enabled:
            self._obs_kernel("cut_weights", k, dense is not None)
        if dense is not None:
            adjacency, w_out, _ = dense
            chunk = self._dense_chunk_rows()
            for start in range(0, k, chunk):
                block = member[start : start + chunk].astype(np.float64)
                inner = np.einsum("ij,ij->i", block @ adjacency, block)
                out[start : start + chunk] = block @ w_out - inner
        else:
            chunk = self._chunk_rows(k)
            for start in range(0, k, chunk):
                block = member[start : start + chunk]
                in_tail = block[:, self._tails]
                in_head = block[:, self._heads]
                crossing = in_tail & ~in_head
                out[start : start + chunk] = crossing @ self._weights
        return float(out[0]) if single else out

    def cut_weights_stable(self, membership) -> np.ndarray:
        """Batch-composition-independent directed cut values.

        Same contract as :meth:`cut_weights`, but row ``k``'s float is a
        function of row ``k`` alone: each row reduces through numpy's
        per-row pairwise summation over the edge arrays, never through a
        BLAS matmul whose blocking (and therefore last-ulp rounding) can
        depend on how many rows share the call.  This is the serving
        tier's evaluation path — a query coalesced into a width-64
        micro-batch must return the same bytes it would have returned
        alone, or batched responses stop being cacheable and replayable.

        Costs one ``(rows, m)`` float intermediate per chunk instead of
        the dense path's BLAS product, so prefer :meth:`cut_weights`
        when bit-stability across batch shapes is not required.
        """
        member, single = self._as_membership(membership)
        k = member.shape[0]
        out = np.empty(k, dtype=np.float64)
        if _OBS.enabled:
            self._obs_kernel("cut_weights_stable", k, False)
        chunk = self._chunk_rows(k)
        for start in range(0, k, chunk):
            block = member[start : start + chunk]
            crossing = block[:, self._tails] & ~block[:, self._heads]
            out[start : start + chunk] = (crossing * self._weights).sum(axis=1)
        return float(out[0]) if single else out

    def cut_weights_both(self, membership) -> Tuple[np.ndarray, np.ndarray]:
        """``(w(S, V\\S), w(V\\S, S))`` per row, sharing one pass.

        The backward direction is what balance scans need; both come from
        the same ``M W`` product (dense path) or the same endpoint
        gathers (fallback), halving the work of two
        :meth:`cut_weights` calls.
        """
        member, single = self._as_membership(membership)
        k = member.shape[0]
        forward = np.empty(k, dtype=np.float64)
        backward = np.empty(k, dtype=np.float64)
        dense = self._dense_parts()
        if _OBS.enabled:
            self._obs_kernel("cut_weights_both", k, dense is not None)
        if dense is not None:
            adjacency, w_out, w_in = dense
            chunk = self._dense_chunk_rows()
            for start in range(0, k, chunk):
                block = member[start : start + chunk].astype(np.float64)
                inner = np.einsum("ij,ij->i", block @ adjacency, block)
                forward[start : start + chunk] = block @ w_out - inner
                backward[start : start + chunk] = block @ w_in - inner
        else:
            chunk = self._chunk_rows(k)
            for start in range(0, k, chunk):
                block = member[start : start + chunk]
                in_tail = block[:, self._tails]
                in_head = block[:, self._heads]
                forward[start : start + chunk] = (
                    in_tail & ~in_head
                ) @ self._weights
                backward[start : start + chunk] = (
                    ~in_tail & in_head
                ) @ self._weights
        if single:
            return float(forward[0]), float(backward[0])
        return forward, backward

    def weights_between(self, src_membership, dst_membership) -> np.ndarray:
        """Batched ``w(S_k, T_k)``: weight of edges from ``S_k`` into ``T_k``.

        Like the dict path's ``directed_weight_between``, sources and
        destinations may overlap; self loops do not exist so overlap
        edges are never double-counted.
        """
        src, single_src = self._as_membership(src_membership)
        dst, single_dst = self._as_membership(dst_membership)
        if src.shape[0] != dst.shape[0]:
            raise GraphError("src and dst membership row counts differ")
        k = src.shape[0]
        out = np.empty(k, dtype=np.float64)
        dense = self._dense_parts()
        if _OBS.enabled:
            self._obs_kernel("weights_between", k, dense is not None)
        if dense is not None:
            adjacency, _, _ = dense
            chunk = self._dense_chunk_rows()
            for start in range(0, k, chunk):
                src_block = src[start : start + chunk].astype(np.float64)
                dst_block = dst[start : start + chunk].astype(np.float64)
                out[start : start + chunk] = np.einsum(
                    "ij,ij->i", src_block @ adjacency, dst_block
                )
        else:
            chunk = self._chunk_rows(k)
            for start in range(0, k, chunk):
                in_src = src[start : start + chunk][:, self._tails]
                in_dst = dst[start : start + chunk][:, self._heads]
                out[start : start + chunk] = (in_src & in_dst) @ self._weights
        return float(out[0]) if single_src and single_dst else out

    def cut_weight(self, side: AbstractSet[Node]) -> float:
        """Single-cut convenience with ``DiGraph.cut_weight`` semantics."""
        member = self.membership_matrix([set(side)])
        self.check_proper(member)
        return float(self.cut_weights(member)[0])

    # ------------------------------------------------------------------
    # degree / balance vectors
    # ------------------------------------------------------------------
    def out_weight_vector(self) -> np.ndarray:
        """Per-node total out-edge weight, indexed by interned id."""
        return np.bincount(
            self._tails, weights=self._weights, minlength=self.num_nodes
        )

    def in_weight_vector(self) -> np.ndarray:
        """Per-node total in-edge weight, indexed by interned id."""
        return np.bincount(
            self._heads, weights=self._weights, minlength=self.num_nodes
        )

    def out_degree_vector(self) -> np.ndarray:
        """Per-node out-degree, indexed by interned id."""
        return np.diff(self._indptr)

    def in_degree_vector(self) -> np.ndarray:
        """Per-node in-degree, indexed by interned id."""
        return np.diff(self._rindptr)

    def imbalance_vector(self) -> np.ndarray:
        """Per-node ``out_weight - in_weight`` (0 everywhere iff Eulerian)."""
        return self.out_weight_vector() - self.in_weight_vector()

    # ------------------------------------------------------------------
    # max flow (integer-indexed Dinic fast path)
    # ------------------------------------------------------------------
    def residual_network(self) -> ResidualNetwork:
        """The cached :class:`ResidualNetwork` for this snapshot.

        Built lazily on first flow call; subsequent calls reuse the same
        arc arrays through :meth:`ResidualNetwork.reset`.
        """
        if self._residual is None:
            self._residual = ResidualNetwork(
                self._tails, self._heads, self._weights, self.num_nodes
            )
        return self._residual

    def max_flow(self, source: int, sink: int) -> CSRFlowResult:
        """Dinic's algorithm over the cached residual network.

        ``source``/``sink`` are interned indices.  The solve dispatches
        through the selected kernel backend (:mod:`repro.kernels`);
        python and native backends produce bit-identical flows.
        """
        total = self.max_flow_value(source, sink)
        side = np.flatnonzero(self.residual_side(source)).tolist()
        return CSRFlowResult(
            value=total,
            source_side=frozenset(side),
            flows=np.maximum(self._residual.arc_flow[0::2], 0.0),
        )

    def max_flow_value(self, source: int, sink: int) -> float:
        """:meth:`max_flow`'s value alone.

        The flow stays on the residual network until the next solve, so
        :meth:`residual_side` can still read its cut.
        """
        from repro.kernels import get_backend, mark_use

        n = self.num_nodes
        if not (0 <= source < n and 0 <= sink < n):
            raise GraphError("source and sink must be interned indices")
        if source == sink:
            raise GraphError("source and sink must differ")
        net = self.residual_network()
        net.reset()
        backend = get_backend()
        mark_use(backend)
        total, phases = backend.dinic_solve(net, source, sink)
        if _OBS.enabled:
            _obs_count("csr.maxflow.calls")
            _obs_observe("csr.maxflow.phases", phases)
        return total

    def residual_side(self, source: int) -> np.ndarray:
        """A ``uint8`` row marking the nodes residual-reachable from
        ``source`` after the last solve: a minimum cut's source side."""
        from repro.kernels import get_backend, mark_use

        net = self.residual_network()
        backend = get_backend()
        mark_use(backend)
        backend.residual_reachable(net, source)
        return net.seen.copy()

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.num_nodes}, m={self.num_edges})"


@dataclass(frozen=True, eq=False)
class BicliqueLayout:
    """One CSR layout for graphs that differ only in some bicliques' weights.

    The lower-bound encoders write one graph per string on a topology
    their parameters fix; the string sets only the weights of fixed
    bicliques (Lemma 3.2 blocks, Gap-Hamming rows).  :meth:`of` reads
    the layout off a template graph once: ``labels``, ``tails``,
    ``heads`` and ``weights`` are what :meth:`CSRGraph.from_digraph`
    lays out for it, and ``positions[b, i * len(right) + j]`` is the
    edge index of biclique ``b``'s edge ``left[i] -> right[j]``.  The
    arrays are read-only, so one layout serves every encoder of a
    parameter set and every worker forked after it was built.
    """

    labels: Tuple[Node, ...]
    tails: np.ndarray
    heads: np.ndarray
    weights: np.ndarray
    positions: np.ndarray

    @classmethod
    def of(
        cls,
        graph: DiGraph,
        bicliques: Sequence[Tuple[Sequence[Node], Sequence[Node]]],
    ) -> "BicliqueLayout":
        """The layout of ``graph``, which holds every biclique's edges
        (the bicliques all of one size)."""
        labels = graph.nodes()
        tails, heads, weights = _edge_arrays(
            labels, [graph.iter_successors(u) for u in labels]
        )
        index = {label: i for i, label in enumerate(labels)}
        n = len(labels)
        # Edge e has key tails[e] * n + heads[e]; no two edges share one.
        edge_keys = tails * n + heads
        wanted = np.array(
            [
                [index[u] * n + index[v] for u in left for v in right]
                for left, right in bicliques
            ],
            dtype=np.int64,
        )
        order = np.argsort(edge_keys)
        slots = np.searchsorted(edge_keys, wanted, sorter=order)
        positions = order[np.minimum(slots, edge_keys.size - 1)]
        if not np.array_equal(edge_keys[positions], wanted):
            raise GraphError("a biclique edge is missing from the template graph")
        for array in (tails, heads, weights, positions):
            array.flags.writeable = False
        return cls(tuple(labels), tails, heads, weights, positions)

    def snapshot(self, block_weights: Optional[np.ndarray] = None) -> CSRGraph:
        """A snapshot with row ``b`` of ``block_weights`` on biclique ``b``
        and the template's weights elsewhere (everywhere when ``None``)."""
        weights = self.weights
        if block_weights is not None:
            weights = weights.copy()
            weights[self.positions] = block_weights
        return CSRGraph(self.labels, self.tails, self.heads, weights)

    def block_weights(self, snapshot: CSRGraph) -> np.ndarray:
        """Row ``b``: the weights ``snapshot`` gives biclique ``b``."""
        return snapshot.weights[self.positions]


def batched_cut_weights(
    graph, sides: Sequence[AbstractSet[Node]]
) -> np.ndarray:
    """Cut values of ``sides`` on ``graph`` through its cached snapshot.

    ``graph`` is any object with ``freeze()`` (DiGraph or UGraph).  Each
    side must be a proper nonempty subset, matching ``cut_weight``.
    """
    csr = graph.freeze()
    member = csr.membership_matrix(sides)
    csr.check_proper(member)
    return csr.cut_weights(member)
