"""Cut sketches: the interface, noisy oracles, and real sparsifiers."""

from repro.sketch.base import CutSketch, SketchModel
from repro.sketch.exact import ExactCutSketch
from repro.sketch.noisy import NoisyForAllSketch, NoisyForEachSketch
from repro.sketch.sparsifier import (
    DEFAULT_SAMPLING_CONSTANT,
    SparsifierSketch,
    importance_sparsify,
    uniform_sparsify,
)
from repro.sketch.directed import BalancedDigraphSparsifier
from repro.sketch.l0sampler import L0Sampler
from repro.sketch.agm import (
    AGMSketch,
    certify_k_connectivity,
    sketch_connected,
    sketch_connected_components,
    sketch_spanning_forest,
)
from repro.sketch.spectral import SpectralSketch, spectral_sparsify
from repro.sketch.serialization import (
    DEFAULT_WEIGHT_BITS,
    edge_bits,
    graph_size_bits,
    node_id_bits,
)

__all__ = [
    "AGMSketch",
    "BalancedDigraphSparsifier",
    "CutSketch",
    "DEFAULT_SAMPLING_CONSTANT",
    "DEFAULT_WEIGHT_BITS",
    "ExactCutSketch",
    "L0Sampler",
    "certify_k_connectivity",
    "NoisyForAllSketch",
    "NoisyForEachSketch",
    "SketchModel",
    "SparsifierSketch",
    "SpectralSketch",
    "edge_bits",
    "graph_size_bits",
    "importance_sparsify",
    "node_id_bits",
    "sketch_connected",
    "sketch_connected_components",
    "sketch_spanning_forest",
    "spectral_sparsify",
    "uniform_sparsify",
]
