"""Theorem 1.1: the for-each cut-sketch lower bound as an executable game."""

from repro.foreach_lb.params import ForEachParams
from repro.foreach_lb.encoder import DEFAULT_C1, EncodedGraph, ForEachEncoder
from repro.foreach_lb.decoder import CutQueryPlan, ForEachDecoder
from repro.foreach_lb.game import IndexGameResult, SketchFactory, run_index_game

__all__ = [
    "CutQueryPlan",
    "DEFAULT_C1",
    "EncodedGraph",
    "ForEachDecoder",
    "ForEachEncoder",
    "ForEachParams",
    "IndexGameResult",
    "SketchFactory",
    "run_index_game",
]
