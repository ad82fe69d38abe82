"""Correlation-family dependence measures: Pearson, Spearman, distance correlation."""
from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import cdist
from scipy.stats import rankdata

from .result import MeasureResult, degenerate_result


def _paired(x, y) -> tuple[np.ndarray, np.ndarray]:
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1:
        raise ValueError("inputs must be one-dimensional")
    if xa.shape[0] != ya.shape[0]:
        raise ValueError(f"length mismatch: {xa.shape[0]} vs {ya.shape[0]}")
    if xa.shape[0] < 2:
        raise ValueError("need at least 2 observations")
    return xa, ya


def _pearson_value(x: np.ndarray, y: np.ndarray) -> float | None:
    """Correlation as sxy/sqrt(sxx*syy); None when a side is constant.

    Constancy is read off min and max: a rounded mean leaves a constant
    column a sxx near 1e-33, not 0.  The variance denominators cancel, and
    the single sqrt keeps perfectly linear inputs at exactly +/-1.0.  When
    sxx*syy is not a positive finite float (non-finite input, overflow,
    underflow) r would be NaN or meaningless, so that raises ValueError.
    """
    if x.min() == x.max() or y.min() == y.max():
        return None
    dx = x - x.mean()
    dy = y - y.mean()
    with np.errstate(over="ignore"):  # an overflowed sum is refused below
        sxx = dx @ dx
        syy = dy @ dy
    product = sxx * syy
    if not (0.0 < product < math.inf):
        raise ValueError("sums of squares are not finite and positive")
    r = (dx @ dy) / math.sqrt(product)
    return min(1.0, max(-1.0, r))


def pearson(x, y) -> MeasureResult:
    """Pearson correlation coefficient; constant input is flagged degenerate."""
    xa, ya = _paired(x, y)
    value = _pearson_value(xa, ya)
    if value is None:
        return degenerate_result("PC", xa.shape[0], "zero variance")
    return MeasureResult("PC", value, xa.shape[0])


def spearman(x, y) -> MeasureResult:
    """Spearman rank correlation: Pearson on average ranks, so ties share their rank."""
    xa, ya = _paired(x, y)
    rx = rankdata(xa, method="average")
    ry = rankdata(ya, method="average")
    value = _pearson_value(rx, ry)
    if value is None:
        return degenerate_result("SC", xa.shape[0], "zero rank variance")
    return MeasureResult("SC", value, xa.shape[0], params={"ties": "average"})


def _as_points(v) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError("inputs must be vectors or matrices of row points")
    return a


def _centered_distances(points: np.ndarray) -> np.ndarray:
    d = cdist(points, points)
    row = d.mean(axis=1, keepdims=True)
    col = d.mean(axis=0, keepdims=True)
    return d - row - col + d.mean()


def distance_correlation(x, y) -> MeasureResult:
    """Distance correlation of paired samples; accepts multivariate rows on either side.

    Both pairwise Euclidean distance matrices are double-centered; dCov^2 is
    the mean elementwise product (a biased V-statistic, so independent data
    scores above zero at small n), and tiny negative rounding residue is
    clipped before the square root.  A constant side is degenerate; distance
    variances that underflow to zero on non-constant points raise ValueError.
    """
    xp = _as_points(x)
    yp = _as_points(y)
    if xp.shape[0] != yp.shape[0]:
        raise ValueError(f"length mismatch: {xp.shape[0]} vs {yp.shape[0]}")
    n = xp.shape[0]
    if n < 2:
        raise ValueError("need at least 2 observations")
    a = _centered_distances(xp)
    b = _centered_distances(yp)
    dvar_x = (a * a).mean()
    dvar_y = (b * b).mean()
    dvar = dvar_x * dvar_y
    if dvar == 0.0:
        if (xp == xp[0]).all() or (yp == yp[0]).all():
            return degenerate_result("DC", n, "zero distance variance")
        raise ValueError("distance variance underflows to zero")
    dcov2 = max((a * b).mean(), 0.0)
    value = math.sqrt(dcov2 / math.sqrt(dvar))
    return MeasureResult("DC", min(value, 1.0), n)
