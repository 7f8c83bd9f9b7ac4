"""Theorem 1.2: the for-all cut-sketch lower bound as an executable game."""

from repro.forall_lb.params import ForAllParams
from repro.forall_lb.encoder import ForAllEncodedGraph, ForAllEncoder
from repro.forall_lb.decoder import (
    DEFAULT_ENUMERATION_LIMIT,
    ForAllDecision,
    ForAllDecoder,
)
from repro.forall_lb.game import (
    GapHammingGameResult,
    SketchFactory,
    run_gap_hamming_game,
)

__all__ = [
    "DEFAULT_ENUMERATION_LIMIT",
    "ForAllDecision",
    "ForAllDecoder",
    "ForAllEncodedGraph",
    "ForAllEncoder",
    "ForAllParams",
    "GapHammingGameResult",
    "SketchFactory",
    "run_gap_hamming_game",
]
