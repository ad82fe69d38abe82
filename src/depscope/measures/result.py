"""The table of dependence measures, their uniform result record, float-input coercion, and
the column windows of an anchor block that the block kernels read."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np


class Measure(NamedTuple):
    """One row of the measure table."""

    id: str
    range: tuple[float, float]  # every non-degenerate value lies in [lo, hi]
    names: tuple[str, ...] = ()  # CLI names besides the lower-case id
    pairwise: bool = False  # scores one feature column only; feature sets are degenerate


MEASURES = (
    Measure("PC", (-1.0, 1.0), ("pearson",), pairwise=True),
    Measure("SC", (-1.0, 1.0), ("spearman",), pairwise=True),
    Measure("DC", (0.0, 1.0), ("dcor",)),
    Measure("MIC", (0.0, 1.0), pairwise=True),
    Measure("MI", (0.0, math.inf)),
    Measure("RSI_SYNERGY", (-math.inf, math.inf), ("rsi",)),
    Measure("PPS", (0.0, 1.0)),
    Measure("IG", (0.0, math.inf)),
)

MEASURE_IDS = tuple(m.id for m in MEASURES)
VALUE_RANGES: dict[str, tuple[float, float]] = {m.id: m.range for m in MEASURES}
_BY_ID = dict(zip(MEASURE_IDS, MEASURES))


def measure_row(measure_id: str) -> Measure:
    """The table row of a measure id; an unknown id raises ValueError."""
    try:
        return _BY_ID[measure_id]
    except KeyError:
        raise ValueError(f"unknown measure id {measure_id!r}; valid ids are {MEASURE_IDS}") from None


@dataclass(frozen=True)
class MeasureResult:
    """A measure value plus the context needed to interpret it.

    Degenerate evaluations (constant input, too few samples, incompatible
    arity) are flagged rather than raised: value is NaN, degenerate is True
    and params carries the reason.
    """

    measure_id: str
    value: float
    sample_size: int
    params: dict = field(default_factory=dict)
    degenerate: bool = False

    def __post_init__(self):
        lo, hi = measure_row(self.measure_id).range
        if not self.degenerate and (math.isnan(self.value) or not (lo <= self.value <= hi)):
            raise ValueError(f"{self.measure_id} value {self.value} outside [{lo}, {hi}]")


def degenerate_result(measure_id: str, sample_size: int, reason: str, **params) -> MeasureResult:
    """Build the flagged NaN result used for inputs a measure cannot score."""
    merged = dict(params)
    merged["reason"] = reason
    return MeasureResult(
        measure_id=measure_id,
        value=math.nan,
        sample_size=sample_size,
        params=merged,
        degenerate=True,
    )


def as_points(values) -> np.ndarray:
    """Float input as an (n, F) float64 matrix of row points with F >= 1.

    A vector is n one-coordinate points.
    """
    a = np.asarray(values, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or a.shape[1] == 0:
        raise ValueError(f"expected a vector or a matrix of row points, got shape {a.shape}")
    return a


def paired_vectors(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Two float inputs as float64 vectors of one shared length of at least 2."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1:
        raise ValueError("inputs must be one-dimensional")
    if xa.shape[0] != ya.shape[0]:
        raise ValueError(f"length mismatch: {xa.shape[0]} vs {ya.shape[0]}")
    if xa.shape[0] < 2:
        raise ValueError("need at least 2 observations")
    return xa, ya


class _Column:
    """One column's windows in one anchor block, an (A, W) matrix with one anchor per row,
    and its sort, each made once.

    Every window is sorted once, by a stable argsort: SC's ranks and the PPS
    tree's presort read the order, and the equal-frequency codes of every
    bin count and DC's distance guard read the sorted values gathered
    through it.
    """

    def __init__(self, values: np.ndarray):
        self.values = values
        self.finite = np.isfinite(values).all(axis=1)

    @cached_property
    def order(self) -> np.ndarray:
        """The stable ascending argsort of each row."""
        return np.argsort(self.values, axis=1, kind="stable")

    @cached_property
    def ordered(self) -> np.ndarray:
        """Each row ascending."""
        return np.take_along_axis(self.values, self.order, axis=1)
