"""Pure-Python reference implementations of the kernel interface.

This module *defines* the semantics every other backend must match.
All kernels operate on flat typed arrays (the Dinic slots receive them
bundled in their residual network) — no dict adjacency — so a compiled
backend can run the identical algorithm over the identical memory
layout.  Where floating point is involved the
accumulation order is part of the contract: a native backend that adds
the same doubles in the same order produces bit-identical results, and
the parity suite (``tests/kernels/test_parity.py``) holds it to that.

Calling convention (shared by every backend)
--------------------------------------------

**Dinic max-flow** works on a residual arc array layout: snapshot edge
``e`` owns forward arc ``2e`` and reverse arc ``2e + 1`` (so the
reverse of arc ``a`` is ``a ^ 1``); ``indptr``/``adj`` is a CSR-style
flattened per-node arc list built in edge order (forward arc appended
to the tail's list, reverse arc to the head's, edge by edge).  Both
slots take the :class:`~repro.graphs.csr.ResidualNetwork` that owns
these arrays: ``dinic_solve(net, source, sink)`` mutates
``net.arc_flow`` in place and returns ``(flow_value, phases)``;
``residual_reachable(net, source)`` fills the ``net.seen`` byte vector
with the residual-reachable set (a min-cut side).
``level``/``iters``/``stack``/``path``/``queue`` are scratch vectors of
the network, reused across the repeated flow calls of global min-cut
and Gomory–Hu.  ``net.addresses`` holds the data addresses of all
eleven arrays, taken once when the network is built, so a compiled
backend passes them on without converting an array per call.

**Contraction** (``contract_to``) implements one weighted Karger
contraction pass over an edge list plus a union-find ``parent``
vector: each step draws one pre-supplied uniform in ``[0, 1)``,
scales it by the total weight of edges whose endpoints lie in
different components (accumulated in edge order), picks the edge by
cumulative scan, and unions head-root under tail-root.  Randomness is
supplied by the *caller* (one uniform per contraction) precisely so
python and native backends consume an identical stream.  On return
``parent`` is fully path-compressed (``parent[i]`` is the component
root for every ``i``) and the reached super-node count is reported.

**Karger runs** (``karger_runs``) performs a batch of independent
weighted Karger contractions down to two super-nodes, each from the
whole graph, and reproduces a contraction over per-node neighbour
dicts (the pre-kernel formulation) exactly.  The graph is given as CSR
rows ``indptr``/``indices``/``weights`` of an undirected snapshot
without self loops: every edge appears in both endpoints' rows, and
row ``u`` lists ``u``'s neighbours in the order its neighbour dict
holds them (a repeated neighbour updates its weight in place, as in a
dict).  The rules:

* *Edge order.*  Each step lists the live edges node by node in index
  order, and within node ``u`` in the order of ``u``'s neighbour list,
  keeping ``{u, v}`` only at its earlier endpoint (``v > u``).  The
  chosen edge ``(u, v)`` therefore always has ``u < v``: ``v`` is
  merged into ``u``, and node 0 is never merged away.
* *Merges* follow dict semantics.  For each live neighbour ``x`` of
  ``v`` (in ``v``'s list order, skipping ``u``), ``u``'s weight to
  ``x`` becomes ``w(u, x) + w(v, x)`` in place, or ``0.0 + w(v, x)``
  appended at the end of ``u``'s list; ``x``'s weight to ``u`` is set
  to the same value, in place or appended at the end of ``x``'s list.
  ``v`` then leaves every list without reordering the others.
* *Total.*  A step's total weight is the sum of the listed weights in
  list order, as the interpreter's builtin ``sum()`` adds floats:
  plain left to right before CPython 3.12, and with Neumaier's
  compensation from 3.12 on (a running correction ``c``, added once at
  the end when nonzero and finite).  ``compensated`` selects the rule;
  callers pass :data:`SUM_IS_COMPENSATED`, which is read from
  ``sys.version_info``.
* *Pick.*  Run ``r`` consumes ``uniforms[r * (n - 2) : (r + 1) * (n -
  2)]``, one per step in order; the step picks with ``pick = total *
  u``, the first edge whose running weight (``acc += w``, from 0.0)
  reaches ``pick <= acc``, and the last edge when none does.  Drawn by
  ``gen.random``, this is bit for bit what ``gen.uniform(0.0, total)``
  returns per step, and it leaves ``gen`` in the same state.

Run ``r`` writes ``values[r]``, the weight between the two final
super-nodes (``0.0`` when none), and row ``r`` of the ``uint8``
``(runs, n)`` matrix ``sides``, the indicator of node 0's super-node.
The slot returns the number of runs completed: fewer than ``runs``
when a run was left with more than two super-nodes and no edge (a
graph of three or more components); the rows of the unfinished runs
are then unspecified.  A compiled backend keeps ``O(n^2)``
scratch (a weight matrix and the neighbour lists).

**Stoer–Wagner** (``stoer_wagner``) finds the global min cut of an
undirected graph given as a dense symmetric ``(n, n)`` ``float64``
matrix ``weights`` (zero diagonal, entries non-negative and not NaN),
which it overwrites while merging nodes, and returns the cut value;
the ``(n,)`` ``uint8`` vector ``side`` receives the indicator of the
cut's side.  Each phase starts from the lowest-indexed live node; each
step scans the live nodes outside the growing set in index order,
keeps the *first* maximum of their connection weights, and then adds
that node's row to the weights of the nodes still outside (one
``+=`` per node per step, in step order).  The phase's last node ``t``
is merged into the one before it, ``s`` (row ``s`` += row ``t`` over
the other live nodes, mirrored into column ``s``), keeping ``s``'s
index.  The side is the group of original nodes merged into ``t`` in
the phase with the strictly smallest cut (the first such phase).
These rules reproduce the dict-of-dicts formulation's tie-breaking and
addition order, so the cut and its side match it exactly.  The work is
``O(n^3)``.

**Hadamard** kernels evaluate Lemma 3.2 products against the memoized
Sylvester matrix ``H`` (entries ±1, ``int8``): ``had_combine_many``
computes ``H^T C_b H`` per coefficient block (exact ``int64``),
``had_row_products`` computes the full product table ``H X H^T`` for a
reshaped query vector, and ``had_decode_one`` recovers one coefficient
``<x, H_i (x) H_j> / ||row||^2``, materializing the dense row exactly
like the pre-kernel implementation did.
"""

from __future__ import annotations

import math
import sys
from typing import Dict, List, Sequence, Tuple

import numpy as np

_EPS = 1e-12

#: Whether builtin ``sum()`` adds floats with Neumaier compensation, as
#: CPython does from 3.12 on (``karger_runs`` reproduces its totals).
SUM_IS_COMPENSATED = sys.version_info >= (3, 12)


# ----------------------------------------------------------------------
# Dinic max flow over flat residual arc arrays
# ----------------------------------------------------------------------
def dinic_solve(net, source: int, sink: int) -> Tuple[float, int]:
    """Run Dinic from ``source`` to ``sink``; mutates ``net.arc_flow``.

    The hot loops run over plain Python lists (the fastest interpreted
    representation); the mutated flow vector is written back into the
    network's ``arc_flow`` array before returning.
    """
    n = len(net.indptr) - 1
    indptr_l = net.indptr.tolist()
    adj_l = net.adj.tolist()
    head_l = net.arc_head.tolist()
    cap_l = net.arc_cap.tolist()
    flow_l = net.arc_flow.tolist()

    total = 0.0
    phases = 0
    while True:
        levels = _bfs_levels(
            n, indptr_l, adj_l, head_l, cap_l, flow_l, source, sink
        )
        if levels[sink] < 0:
            break
        phases += 1
        total += _blocking_flow(
            n, indptr_l, adj_l, head_l, cap_l, flow_l, levels, source, sink
        )
    net.arc_flow[:] = flow_l
    return total, phases


def _bfs_levels(
    n, indptr, adj, arc_head, arc_cap, arc_flow, source, sink
) -> List[int]:
    """BFS levels from ``source``, stopping once ``sink`` has its level.

    Every node left at ``-1`` then lies at or beyond the sink's level,
    so no level path to the sink passes through it: the blocking flow
    finds the same augmenting paths in the same order, and only skips
    the dead ends a full labelling would have walked into.
    """
    from collections import deque

    level = [-1] * n
    level[source] = 0
    queue = deque([source])
    while queue:
        cur = queue.popleft()
        for k in range(indptr[cur], indptr[cur + 1]):
            a = adj[k]
            head = arc_head[a]
            if level[head] < 0 and arc_cap[a] - arc_flow[a] > _EPS:
                level[head] = level[cur] + 1
                if head == sink:
                    return level
                queue.append(head)
    return level


def _blocking_flow(
    n, indptr, adj, arc_head, arc_cap, arc_flow, level, source, sink
) -> float:
    """Iterative blocking flow for one Dinic phase (reference order)."""
    iters = [0] * n
    total = 0.0
    stack = [source]
    path: List[int] = []
    while stack:
        u = stack[-1]
        if u == sink:
            push = min(arc_cap[a] - arc_flow[a] for a in path)
            total += push
            for a in path:
                arc_flow[a] += push
                arc_flow[a ^ 1] -= push
            # Retreat to just past the first arc this push saturated.
            cut = 0
            for i, a in enumerate(path):
                if arc_cap[a] - arc_flow[a] <= _EPS:
                    cut = i
                    break
            del stack[cut + 1 :]
            del path[cut:]
            continue
        advanced = False
        while iters[u] < indptr[u + 1] - indptr[u]:
            a = adj[indptr[u] + iters[u]]
            head = arc_head[a]
            if arc_cap[a] - arc_flow[a] > _EPS and level[head] == level[u] + 1:
                stack.append(head)
                path.append(a)
                advanced = True
                break
            iters[u] += 1
        if not advanced:
            level[u] = -1  # dead end for the rest of this phase
            stack.pop()
            if path:
                path.pop()
                iters[stack[-1]] += 1
    return total


def residual_reachable(net, source: int) -> None:
    """Fill ``net.seen`` (uint8) with the residual-reachable set from source."""
    n = len(net.indptr) - 1
    indptr_l = net.indptr.tolist()
    adj_l = net.adj.tolist()
    head_l = net.arc_head.tolist()
    cap_l = net.arc_cap.tolist()
    flow_l = net.arc_flow.tolist()
    seen_l = [0] * n
    seen_l[source] = 1
    work = [source]
    while work:
        cur = work.pop()
        for k in range(indptr_l[cur], indptr_l[cur + 1]):
            a = adj_l[k]
            head = head_l[a]
            if not seen_l[head] and cap_l[a] - flow_l[a] > _EPS:
                seen_l[head] = 1
                work.append(head)
    net.seen[:] = seen_l


# ----------------------------------------------------------------------
# Weighted contraction over an edge list + union-find parent vector
# ----------------------------------------------------------------------
def _find(parent: List[int], i: int) -> int:
    """Root of ``i`` with path halving (the shared union-find rule)."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def contract_to(
    tails: np.ndarray,
    heads: np.ndarray,
    weights: np.ndarray,
    parent: np.ndarray,
    size: int,
    target: int,
    uniforms: np.ndarray,
) -> Tuple[int, int]:
    """Contract until ``target`` super-nodes remain (or stuck).

    Returns ``(reached_size, uniforms_consumed)``.  ``reached_size``
    stays above ``target`` only when the alive subgraph ran out of
    cross-component edges (disconnected).  ``parent`` is mutated and
    fully compressed on return.
    """
    m = int(tails.size)
    tails_l = tails.tolist()
    heads_l = heads.tolist()
    weights_l = weights.tolist()
    parent_l = parent.tolist()
    uniforms_l = uniforms.tolist()
    used = 0
    current = size
    while current > target:
        total = 0.0
        for e in range(m):
            if _find(parent_l, tails_l[e]) != _find(parent_l, heads_l[e]):
                total += weights_l[e]
        if total <= 0.0:
            break
        pick = uniforms_l[used] * total
        used += 1
        acc = 0.0
        chosen = -1
        for e in range(m):
            ra = _find(parent_l, tails_l[e])
            rb = _find(parent_l, heads_l[e])
            if ra == rb:
                continue
            chosen = e
            acc += weights_l[e]
            if pick <= acc:
                break
        ra = _find(parent_l, tails_l[chosen])
        rb = _find(parent_l, heads_l[chosen])
        parent_l[rb] = ra
        current -= 1
    for i in range(len(parent_l)):
        parent_l[i] = _find(parent_l, i)
    parent[:] = parent_l
    return current, used


# ----------------------------------------------------------------------
# Batched Karger contraction runs with neighbour-dict semantics
# ----------------------------------------------------------------------
def float_sum(values: Sequence[float], compensated: bool) -> float:
    """Builtin ``sum()`` of floats under the plain or the compensated rule."""
    total = 0.0
    if not compensated:
        for x in values:
            total += x
        return total
    c = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            c += (total - t) + x
        else:
            c += (x - t) + total
        total = t
    if c and math.isfinite(c):
        total += c
    return total


def karger_runs(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    uniforms: np.ndarray,
    compensated: bool,
    values: np.ndarray,
    sides: np.ndarray,
) -> int:
    """Contract each run to two super-nodes; returns the runs completed.

    Each node's neighbours live in an insertion-ordered dict, which is
    the merge rule of the calling convention verbatim.
    """
    n = len(indptr) - 1
    steps = max(n - 2, 0)
    ptr = indptr.tolist()
    nbrs = indices.tolist()
    wts = weights.tolist()
    picks = uniforms.tolist()
    for run in range(values.size):
        adj: Dict[int, Dict[int, float]] = {
            u: dict(zip(nbrs[ptr[u] : ptr[u + 1]], wts[ptr[u] : ptr[u + 1]]))
            for u in range(n)
        }
        owner = list(range(n))
        for step in range(steps):
            edges = [
                (u, v, w) for u, row in adj.items() for v, w in row.items() if v > u
            ]
            if not edges:
                return run
            total = float_sum([w for _, _, w in edges], compensated)
            pick = total * picks[run * steps + step]
            chosen = edges[-1]
            acc = 0.0
            for edge in edges:
                acc += edge[2]
                if pick <= acc:
                    chosen = edge
                    break
            u, v, _ = chosen
            for x, w in adj[v].items():
                if x == u:
                    continue
                merged = adj[u].get(x, 0.0) + w
                adj[u][x] = merged
                adj[x][u] = merged
                del adj[x][v]
            adj[u].pop(v, None)
            del adj[v]
            owner = [u if o == v else o for o in owner]
        values[run] = float_sum(list(adj[0].values()), compensated)
        sides[run] = [o == 0 for o in owner]
    return values.size


# ----------------------------------------------------------------------
# Stoer–Wagner global min cut over a dense symmetric weight matrix
# ----------------------------------------------------------------------
def stoer_wagner(weights: np.ndarray, side: np.ndarray) -> float:
    """Global min cut value; fills ``side`` and merges ``weights`` in place.

    This is the vectorized specification.  Each step is one vector
    operation over all ``n`` slots: entries of nodes already in the set
    (or merged away) are updated too but never read again, and
    ``np.argmax`` returns the first maximum.  The native rendering
    skips those slots: it scans an ascending list of the live nodes
    still outside the set, with a strict ``>``, so it keeps the same
    first maximum and adds the same doubles in the same order, and
    every value, side and merged row matches this one bit for bit.
    """
    n = weights.shape[0]
    merged = np.zeros(n, dtype=bool)
    owner = np.arange(n)
    best = math.inf
    for remaining in range(n, 1, -1):
        start = int(np.argmin(merged))
        in_set = merged.copy()
        in_set[start] = True
        key = weights[start].copy()
        s = t = start
        cut = 0.0
        for _ in range(remaining - 1):
            chosen = int(np.argmax(np.where(in_set, -np.inf, key)))
            cut = float(key[chosen])
            in_set[chosen] = True
            key += weights[chosen]
            s, t = t, chosen
        if cut < best:
            best = cut
            side[:] = owner == t
        others = ~merged
        others[s] = others[t] = False
        weights[s, others] += weights[t, others]
        weights[others, s] = weights[s, others]
        merged[t] = True
        owner[owner == t] = s
    return best


# ----------------------------------------------------------------------
# Lemma 3.2 Hadamard products
# ----------------------------------------------------------------------
def had_combine_many(h: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """``H^T C_b H`` for a batch of coefficient matrices, exact int64.

    ``h`` is the (side, side) ±1 Sylvester matrix (int8); ``coeff`` is
    (B, side, side) int64.  Returns (B, side * side) int64 — each block
    flattened row-major, matching the paper's edge indexing.
    """
    side = h.shape[0]
    h64 = h.astype(np.int64)
    dense = np.matmul(h64.T, np.matmul(coeff, h64))
    return dense.reshape(coeff.shape[0], side * side)


def had_row_products(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """All row inner products ``<x, H_i (x) H_j>`` as the table ``H X H^T``.

    ``x`` has length ``side**2``; entry ``(i, j)`` of the result is the
    inner product of ``x`` with the tensor row ``H_i (x) H_j``.
    """
    side = h.shape[0]
    hf = h.astype(np.float64)
    X = np.asarray(x, dtype=np.float64).reshape(side, side)
    return hf @ X @ hf.T


def had_decode_one(h: np.ndarray, x: np.ndarray, i: int, j: int) -> float:
    """``<x, H_i (x) H_j>`` via the dense row (the legacy evaluation).

    Kept as an explicit kron-then-dot so the default python backend
    reproduces the pre-kernel implementation bit for bit.
    """
    row = np.kron(h[i], h[j]).astype(np.float64)
    return float(np.dot(np.asarray(x, dtype=np.float64), row))


def make_backend():
    """The python reference :class:`~repro.kernels.registry.KernelBackend`."""
    from repro.kernels.registry import KernelBackend

    return KernelBackend(
        name="python",
        source="python",
        dinic_solve=dinic_solve,
        residual_reachable=residual_reachable,
        contract_to=contract_to,
        karger_runs=karger_runs,
        stoer_wagner=stoer_wagner,
        had_combine_many=had_combine_many,
        had_row_products=had_row_products,
        had_decode_one=had_decode_one,
    )
