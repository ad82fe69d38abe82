"""Correlation-family dependence measures: Pearson, Spearman, distance correlation."""
from __future__ import annotations

import math

import numpy as np

from .result import MeasureResult, as_points, degenerate_result, paired_vectors

CDIST_ROWS = 64  # rows of the distance matrix cdist adds a column's squares to at a time


def _average_ranks(a: np.ndarray, order: np.ndarray | None = None) -> np.ndarray:
    """1-based ranks of a vector, tied values sharing their mean rank.

    Bit for bit scipy.stats.rankdata(a, method="average"): a NaN anywhere
    makes every rank NaN, and equal infinities tie.  order, when given, is
    a's ascending argsort (any order among ties will do).
    """
    if np.isnan(a).any():
        return np.full(a.shape, np.nan)
    if order is None:
        order = np.argsort(a, kind="stable")
    ordered = a[order]
    starts = np.ones(a.shape, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    dense = np.empty(a.shape, dtype=np.intp)
    dense[order] = np.cumsum(starts)  # 1-based tie group of each value
    count = np.append(np.flatnonzero(starts), a.shape[0])  # values before each group, then n
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def cdist(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Euclidean distances between the row points of xa and of xb.

    Squared differences are summed column by column in column order and
    then rooted, the arithmetic of scipy.spatial.distance.cdist, so
    distances underflow and overflow exactly where scipy's do.  Columns
    after the first are added CDIST_ROWS rows at a time, so their squared
    differences are a block-sized temporary, not a second matrix.
    """
    d = np.subtract.outer(xa[:, 0], xb[:, 0])
    d *= d
    for j in range(1, xa.shape[1]):
        for start in range(0, xa.shape[0], CDIST_ROWS):
            rows = slice(start, start + CDIST_ROWS)
            e = np.subtract.outer(xa[rows, j], xb[:, j])
            e *= e
            d[rows] += e
    return np.sqrt(d, out=d)


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
    with np.errstate(over="ignore"):  # an overflowed sum or product is refused below
        sxx = dx @ dx
        syy = dy @ dy
        product = sxx * syy
    if not (0.0 < product < math.inf):
        raise ValueError("sums of squares are not finite and positive")
    r = (dx @ dy) / math.sqrt(product)
    return min(1.0, max(-1.0, r))


def pearson(x, y) -> MeasureResult:
    """Pearson correlation coefficient; constant input is flagged degenerate."""
    xa, ya = paired_vectors(x, y)
    value = _pearson_value(xa, ya)
    if value is None:
        return degenerate_result("PC", xa.shape[0], "zero variance")
    return MeasureResult("PC", value, xa.shape[0])


def spearman(x, y) -> MeasureResult:
    """Spearman rank correlation: Pearson on average ranks, so ties share their rank."""
    xa, ya = paired_vectors(x, y)
    return _spearman(_average_ranks(xa), _average_ranks(ya))


def _spearman(x_ranks: np.ndarray, y_ranks: np.ndarray) -> MeasureResult:
    """SC of two paired sides' _average_ranks."""
    if x_ranks.shape[0] < 2:
        raise ValueError("need at least 2 observations")
    value = _pearson_value(x_ranks, y_ranks)
    if value is None:
        return degenerate_result("SC", x_ranks.shape[0], "zero rank variance")
    return MeasureResult("SC", value, x_ranks.shape[0], params={"ties": "average"})


def _centered_distances(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Double-centered Euclidean distance matrix of row points, and its distance variance.

    The matrix is centred in place, in the order of d - row - col + d.mean().
    Distances too large for float64 would centre inf - inf into NaN, so a
    non-finite distance variance raises ValueError instead, as do fewer
    than 2 points.
    """
    if points.shape[0] < 2:
        raise ValueError("need at least 2 observations")
    with np.errstate(over="ignore", invalid="ignore"):
        d = cdist(points, points)
        row = d.mean(axis=1, keepdims=True)
        col = d.mean(axis=0, keepdims=True)
        grand = d.mean()
        d -= row
        d -= col
        d += grand
        dvar = float(np.square(d).mean())
    if not math.isfinite(dvar):
        raise ValueError("distances overflow")
    return d, dvar


def _distance_correlation(xp: np.ndarray, x_centered, yp: np.ndarray, y_centered) -> MeasureResult:
    """DC of paired row points from each side's _centered_distances."""
    (a, dvar_x), (b, dvar_y) = x_centered, y_centered
    n = a.shape[0]
    dvar = dvar_x * dvar_y
    if dvar == 0.0:
        if (xp == xp[0]).all() or (yp == yp[0]).all():
            return degenerate_result("DC", n, "zero distance variance")
        raise ValueError("distance variance underflows to zero")
    if dvar == math.inf:
        raise ValueError("distances overflow")
    dcov2 = max(float((a * b).mean()), 0.0)
    value = math.sqrt(dcov2 / math.sqrt(dvar))
    return MeasureResult("DC", min(value, 1.0), n)


def distance_correlation(x, y) -> MeasureResult:
    """Distance correlation of paired samples; accepts multivariate rows on either side.

    Both pairwise Euclidean distance matrices are double-centered; dCov^2 is
    the mean elementwise product (a biased V-statistic, so independent data
    scores above zero at small n), and tiny negative rounding residue is
    clipped before the square root.  A constant side is degenerate; non-finite
    input, distance variances that underflow to zero on non-constant points,
    and distances or variances that overflow raise ValueError.
    """
    xp = as_points(x)
    yp = as_points(y)
    if xp.shape[0] != yp.shape[0]:
        raise ValueError(f"length mismatch: {xp.shape[0]} vs {yp.shape[0]}")
    if xp.shape[0] < 2:
        raise ValueError("need at least 2 observations")
    if not (np.isfinite(xp).all() and np.isfinite(yp).all()):
        raise ValueError("inputs are not finite")
    return _distance_correlation(xp, _centered_distances(xp), yp, _centered_distances(yp))
