"""Cut helpers: enumeration, brute-force minimization, indicator algebra.

These exact (exponential) routines are the ground truth that every
polynomial algorithm and every sketch in the library is tested against.
They are deliberately simple; callers must keep ``n`` small (the
enumerators refuse to run above :data:`MAX_ENUM_NODES` nodes).
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import AbstractSet, Callable, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.errors import GraphError
from repro.graphs.digraph import DiGraph, Node
from repro.graphs.ugraph import UGraph

#: Enumerating all cuts is Theta(2^n); above this we refuse rather than hang.
MAX_ENUM_NODES = 22

#: Cuts evaluated per vectorized kernel call when streaming enumerations.
DEFAULT_CUT_BATCH = 1024


def enumerate_cut_sides(nodes: List[Node], pinned: Optional[Node] = None) -> Iterator[FrozenSet[Node]]:
    """Yield every proper nonempty ``S`` subset of ``nodes``, one per cut.

    For *undirected* cuts, ``S`` and its complement define the same cut,
    so passing ``pinned`` (a node forced to lie in S) halves the work and
    yields each unordered cut exactly once.  For *directed* cuts pass
    ``pinned=None`` to get both orientations.
    """
    if len(nodes) > MAX_ENUM_NODES:
        raise GraphError(
            f"refusing to enumerate cuts of a {len(nodes)}-node graph "
            f"(limit {MAX_ENUM_NODES})"
        )
    if len(nodes) < 2:
        return
    if pinned is not None:
        if pinned not in nodes:
            raise GraphError(f"pinned node {pinned!r} not in graph")
        rest = [node for node in nodes if node != pinned]
        for size in range(len(rest) + 1):
            for combo in combinations(rest, size):
                side = frozenset((pinned,) + combo)
                if len(side) < len(nodes):
                    yield side
    else:
        for size in range(1, len(nodes)):
            for combo in combinations(nodes, size):
                yield frozenset(combo)


def _batched_cut_values(
    graph,
    sides: Iterable[FrozenSet[Node]],
    batch_size: int,
) -> Iterator[Tuple[FrozenSet[Node], float]]:
    """Stream ``(S, w(S, V\\S))`` evaluating ``batch_size`` cuts per kernel call.

    ``graph`` is any freezable graph (DiGraph or UGraph); the enumeration
    order of ``sides`` is preserved exactly, so consumers that break ties
    by iteration order see the order of ``sides``.
    """
    csr = graph.freeze()
    iterator = iter(sides)
    while True:
        batch = list(islice(iterator, batch_size))
        if not batch:
            return
        values = csr.cut_weights(csr.membership_matrix(batch))
        for side, value in zip(batch, values):
            yield side, float(value)


def all_directed_cut_values(
    graph: DiGraph,
    batch_size: int = DEFAULT_CUT_BATCH,
) -> Iterator[Tuple[FrozenSet[Node], float]]:
    """Yield ``(S, w(S, V\\S))`` for every proper nonempty ``S``.

    Cut values come from the frozen snapshot's vectorized kernel,
    ``batch_size`` cuts per call, in :func:`enumerate_cut_sides` order.
    """
    yield from _batched_cut_values(
        graph, enumerate_cut_sides(graph.nodes()), batch_size
    )


def all_undirected_cut_values(
    graph: UGraph,
    batch_size: int = DEFAULT_CUT_BATCH,
) -> Iterator[Tuple[FrozenSet[Node], float]]:
    """Yield ``(S, w(S, V\\S))`` once per unordered cut.

    Evaluated like :func:`all_directed_cut_values`.
    """
    nodes = graph.nodes()
    if len(nodes) < 2:
        return
    sides = enumerate_cut_sides(nodes, pinned=nodes[0])
    yield from _batched_cut_values(graph, sides, batch_size)


def brute_force_min_cut(graph: UGraph) -> Tuple[float, FrozenSet[Node]]:
    """Exact global min cut of an undirected graph by enumeration."""
    best_value: Optional[float] = None
    best_side: Optional[FrozenSet[Node]] = None
    for side, value in all_undirected_cut_values(graph):
        if best_value is None or value < best_value:
            best_value = value
            best_side = side
    if best_value is None:
        raise GraphError("graph has fewer than 2 nodes; no cuts exist")
    return best_value, best_side


def brute_force_directed_min_cut(graph: DiGraph) -> Tuple[float, FrozenSet[Node]]:
    """Exact global directed min cut ``min_S w(S, V\\S)`` by enumeration."""
    best_value: Optional[float] = None
    best_side: Optional[FrozenSet[Node]] = None
    for side, value in all_directed_cut_values(graph):
        if best_value is None or value < best_value:
            best_value = value
            best_side = side
    if best_value is None:
        raise GraphError("graph has fewer than 2 nodes; no cuts exist")
    return best_value, best_side


def max_cut_error(
    exact_graph: UGraph, approx: Callable[[AbstractSet[Node]], float]
) -> float:
    """Worst multiplicative error of ``approx`` over every undirected cut.

    Returns ``max_S |approx(S) - w(S)| / w(S)``; cuts of exact value 0
    must be answered exactly or the error is reported as ``inf``.  This is
    the for-all quality metric for sparsifiers.
    """
    worst = 0.0
    for side, value in all_undirected_cut_values(exact_graph):
        estimate = approx(set(side))
        if value == 0:
            if estimate != 0:
                return float("inf")
            continue
        worst = max(worst, abs(estimate - value) / value)
    return worst


def max_directed_cut_error(
    exact_graph: DiGraph, approx: Callable[[AbstractSet[Node]], float]
) -> float:
    """Worst multiplicative error of ``approx`` over every directed cut."""
    worst = 0.0
    for side, value in all_directed_cut_values(exact_graph):
        estimate = approx(set(side))
        if value == 0:
            if estimate != 0:
                return float("inf")
            continue
        worst = max(worst, abs(estimate - value) / value)
    return worst
