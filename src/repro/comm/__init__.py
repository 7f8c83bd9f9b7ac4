"""Communication-complexity substrate: bit ledgers and problem samplers."""

from repro.comm.protocol import BitLedger
from repro.comm.gap_hamming import (
    GAP_CONSTANT,
    GapCase,
    GapHammingInstance,
    distance_to_case,
    gap_threshold,
    intersection_case,
    sample_gap_hamming_instance,
)
from repro.comm.twosum import (
    MIN_INTERSECTING_FRACTION,
    TwoSumInstance,
    concatenate_pairs,
    lift_instance,
    sample_twosum_instance,
    sample_unit_pair,
)

__all__ = [
    "GAP_CONSTANT",
    "BitLedger",
    "GapCase",
    "GapHammingInstance",
    "MIN_INTERSECTING_FRACTION",
    "TwoSumInstance",
    "concatenate_pairs",
    "distance_to_case",
    "gap_threshold",
    "intersection_case",
    "lift_instance",
    "sample_gap_hamming_instance",
    "sample_twosum_instance",
    "sample_unit_pair",
]
