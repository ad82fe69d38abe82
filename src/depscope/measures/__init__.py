"""Dependence measures with a uniform result record."""
from .information import (
    DiscreteDistribution,
    JointHistogram,
    conditional_entropy,
    entropy,
    equal_frequency_symbols,
    information_gain,
    mic,
    mutual_information,
    redundancy_synergy_index,
)
from .model_based import pps
from .result import MEASURE_IDS, VALUE_RANGES, MeasureResult, degenerate_result
from .statistical import distance_correlation, pearson, spearman

__all__ = [
    "MEASURE_IDS",
    "VALUE_RANGES",
    "MeasureResult",
    "degenerate_result",
    "pearson",
    "spearman",
    "distance_correlation",
    "DiscreteDistribution",
    "JointHistogram",
    "entropy",
    "conditional_entropy",
    "mutual_information",
    "information_gain",
    "redundancy_synergy_index",
    "equal_frequency_symbols",
    "mic",
    "pps",
]
