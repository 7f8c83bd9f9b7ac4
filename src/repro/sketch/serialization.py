"""Bit-size accounting for graphs and sketches.

The lower bounds are statements about *bits*, so the library charges
explicit, documented costs rather than ``sys.getsizeof`` guesses:

* a node identity costs ``ceil(log2 n)`` bits;
* an edge costs two node identities plus ``weight_bits`` for its weight;
* a graph costs its edge list (the node set is common knowledge in all of
  the paper's games — Alice and Bob agree on ``V`` up front).

``weight_bits`` defaults to 32; the constructions use weights drawn from
a set of size ``O(1/eps)`` so this is generous but only affects constant
factors, which the experiments never interpret.

Measured bytes are a *separate*, complementary axis.  The bit costs
here are the information-theoretic quantities the theorems bound; what
a sketch actually occupies in process memory (Python object headers,
dict load factors, numpy buffers) is measured — not guessed — by
:func:`repro.obs.memory.deep_footprint`, which walks live objects and
reports resident bytes next to the theoretical
:meth:`~repro.sketch.base.Sketch.size_bits` so every footprint carries
a measured-bytes/theoretical-bits ratio (``run_all --memory``).  The
two never substitute for each other: bound certification against
Thm 1.1/1.2 envelopes uses these bit costs; the
:class:`repro.obs.bounds.SpaceBoundSpec` companions certify the
measured bytes against the same envelopes with their own declared
slack.
"""

from __future__ import annotations

import math
from typing import Union

from repro.errors import SketchError
from repro.graphs.csr import CSRGraph
from repro.graphs.digraph import DiGraph
from repro.graphs.ugraph import UGraph

DEFAULT_WEIGHT_BITS = 32


def node_id_bits(num_nodes: int) -> int:
    """Bits to name one node among ``num_nodes``."""
    if num_nodes < 1:
        raise SketchError("num_nodes must be positive")
    return max(1, math.ceil(math.log2(num_nodes)))


def edge_bits(num_nodes: int, weight_bits: int = DEFAULT_WEIGHT_BITS) -> int:
    """Bits to describe one weighted edge."""
    if weight_bits < 0:
        raise SketchError("weight_bits must be non-negative")
    return 2 * node_id_bits(num_nodes) + weight_bits


def graph_size_bits(
    graph: Union[DiGraph, UGraph, CSRGraph], weight_bits: int = DEFAULT_WEIGHT_BITS
) -> int:
    """Bits to transmit the graph or a DiGraph snapshot as a weighted edge list."""
    return graph.num_edges * edge_bits(graph.num_nodes, weight_bits)
