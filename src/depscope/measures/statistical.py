"""Correlation-family dependence measures: Pearson, Spearman, distance correlation."""
from __future__ import annotations

import functools
import math

import numpy as np

from .result import MeasureResult, _Column, as_points, degenerate_result, paired_vectors

CDIST_ROWS = 64  # rows of the distance matrix cdist adds a column's squares to at a time


def _average_ranks(a: np.ndarray, order: np.ndarray | None = None) -> np.ndarray:
    """1-based ranks along the last axis, tied values sharing their mean rank.

    Each row is bit for bit scipy.stats.rankdata(row, method="average"): a
    NaN anywhere in a row makes its every rank NaN, and equal infinities
    tie.  order, when given, is a's ascending argsort along the last axis
    (any order among ties will do).
    """
    if order is None:
        order = np.argsort(a, axis=-1, kind="stable")
    n = a.shape[-1]
    ordered = np.take_along_axis(a, order, axis=-1)
    starts = np.ones(a.shape, dtype=bool)
    np.not_equal(ordered[..., 1:], ordered[..., :-1], out=starts[..., 1:])
    position = np.arange(n)
    before = np.maximum.accumulate(np.where(starts, position, 0), axis=-1)  # values before a group
    after = np.full(a.shape, n)
    after[..., :-1] = np.where(starts[..., 1:], position[1:], n)
    through = np.minimum.accumulate(after[..., ::-1], axis=-1)[..., ::-1]  # ... and through it
    ranks = np.empty(a.shape)
    np.put_along_axis(ranks, order, 0.5 * (through + before + 1), axis=-1)
    ranks[np.isnan(a).any(axis=-1)] = np.nan
    return ranks


def cdist(xa: np.ndarray, xb: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Euclidean distances between the row points of xa and of xb, in out when given.

    Squared differences are summed column by column in column order and
    then rooted, the arithmetic of scipy.spatial.distance.cdist, so
    distances underflow and overflow exactly where scipy's do.  Columns
    after the first are added CDIST_ROWS rows at a time, so their squared
    differences are a block-sized temporary, not a second matrix.
    """
    d = np.subtract.outer(xa[:, 0], xb[:, 0], out=out)
    d *= d
    for j in range(1, xa.shape[1]):
        for start in range(0, xa.shape[0], CDIST_ROWS):
            rows = slice(start, start + CDIST_ROWS)
            e = np.subtract.outer(xa[rows, j], xb[:, j])
            e *= e
            d[rows] += e
    return np.sqrt(d, out=d)


NOT_FINITE_POSITIVE = "sums of squares are not finite and positive"
# Each correlation's reason for a constant row, or for DC a constant side.
_CONSTANT = {"PC": "zero variance", "SC": "zero rank variance", "DC": "zero distance variance"}


def _correlations(measure_id: str, x: np.ndarray, y: np.ndarray):
    """PC, or SC of ranks, of each row pair of two (A, n) matrices, and the checks that flag
    rows: a constant row, then sums of squares that are not finite and positive.

    Each row's correlation is sxy/sqrt(sxx*syy) about its own mean, the
    arithmetic of that row alone: row means and stacked dot products are
    exact.  Constancy is read off min and max: a rounded mean leaves a
    constant row a sxx near 1e-33, not 0.  The variance denominators cancel,
    and the single sqrt keeps perfectly linear rows at exactly +/-1.0.  A
    row whose sxx*syy is not a positive finite float (non-finite input,
    overflow, underflow) would score NaN or a meaningless r, so it is
    flagged.  Nothing warns.
    """
    if x.shape[1] < 2:
        raise ValueError("need at least 2 observations")
    constant = (x.min(axis=1) == x.max(axis=1)) | (y.min(axis=1) == y.max(axis=1))
    with np.errstate(all="ignore"):  # what over- or underflows is flagged below
        dx = x - x.mean(axis=1, keepdims=True)
        dy = y - y.mean(axis=1, keepdims=True)
        product = np.vecdot(dx, dx) * np.vecdot(dy, dy)
        r = np.clip(np.vecdot(dx, dy) / np.sqrt(product), -1.0, 1.0)
    refused = ~((0.0 < product) & (product < math.inf))
    return r, [(constant, _CONSTANT[measure_id]), (refused, NOT_FINITE_POSITIVE)]


def _pairwise(measure_id: str, sets: list, ys: list):
    """PC, or SC of average ranks, of every (feature set, target) pair of an anchor block, and
    _correlations' checks: an (A, S, T) value array, NaN for a set of more than one column
    (which the scan flags as a pairwise measure's).  SC ranks each column once per call."""
    ranks = functools.cache(lambda c: _average_ranks(c.values, c.order))
    side = ranks if measure_id == "SC" else lambda c: c.values
    values = np.full((len(ys[0].values), len(sets), len(ys)), math.nan)
    masks = np.zeros((2,) + values.shape, dtype=bool)
    for i, x in enumerate(sets):
        if len(x) == 1:
            for j, y in enumerate(ys):
                values[:, i, j], checks = _correlations(measure_id, side(x[0]), side(y))
                masks[:, :, i, j] = [mask for mask, _ in checks]
    return values, list(zip(masks, (_CONSTANT[measure_id], NOT_FINITE_POSITIVE)))


_pearsons = functools.partial(_pairwise, "PC")  # PC's block kernel, kernel(sets, ys)
_spearmans = functools.partial(_pairwise, "SC")  # SC's


def _correlation(measure_id: str, x: np.ndarray, y: np.ndarray, **params) -> MeasureResult:
    """One pair's result: a constant side is degenerate, and a refused one raises."""
    r, ((constant, reason), (refused, _)) = _correlations(measure_id, x[None], y[None])
    if constant[0]:
        return degenerate_result(measure_id, x.shape[0], reason)
    if refused[0]:
        raise ValueError(NOT_FINITE_POSITIVE)
    return MeasureResult(measure_id, float(r[0]), x.shape[0], params=params)


def pearson(x, y) -> MeasureResult:
    """Pearson correlation coefficient; constant input is flagged degenerate."""
    return _correlation("PC", *paired_vectors(x, y))


def spearman(x, y) -> MeasureResult:
    """Spearman rank correlation: Pearson on average ranks, so ties share their rank.

    Non-finite input raises ValueError.
    """
    xa, ya = paired_vectors(x, y)
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise ValueError("inputs are not finite")  # ranks of infinities would be finite
    return _correlation("SC", _average_ranks(xa), _average_ranks(ya), ties="average")


# sqrt(x * x) is |x| for every double x whose square neither underflows nor overflows
# (Boldo 2015, radix 2): |x| >= 2**-511 keeps x * x normal, |x| < 2**511 keeps it finite.
EXACT_LOW = 2.0**-511
EXACT_HIGH = 2.0**511


def _abs_is_cdist(ordered: np.ndarray) -> np.ndarray:
    """Whether |xi - xj| is cdist's one-column distance bit for bit, for each ascending row.

    cdist takes sqrt((xi - xj)**2) of the same rounded difference, so the two
    agree wherever no non-zero difference is below EXACT_LOW and none
    reaches EXACT_HIGH.  Rounding is monotone, so the smallest non-zero
    difference of a row is a gap between neighbours and the largest is its
    span: only those are checked.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.diff(ordered, axis=-1)
        span = ordered[..., -1:] - ordered[..., :1]
    tiny = ((0.0 < gaps) & (gaps < EXACT_LOW)).any(axis=-1)
    return (span < EXACT_HIGH).all(axis=-1) & ~tiny


def _distances(points: np.ndarray, exact: bool, out: np.ndarray | None = None) -> np.ndarray:
    """cdist(points, points), in out when given; |xi - xj| when exact, which _abs_is_cdist must
    have found of one-column points."""
    if not exact:
        return cdist(points, points, out)
    d = np.subtract.outer(points[:, 0], points[:, 0], out=out)
    return np.abs(d, out=d)


def _centered_distances(
    points: np.ndarray, exact: bool, scratch: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Double-centered Euclidean distance matrix of row points, and its distance variance.

    Distances are _distances(points, exact, out), made in the (n, n) buffer
    out when it is given, else in a new matrix.  The matrix is centred in place,
    in the order of d - row - col + grand mean, each mean np.add.reduce over
    its count, the bits of ndarray.mean; the squares are taken into scratch,
    an (n, n) buffer the caller lets it overwrite.  Distances too large for
    float64 would centre inf - inf into NaN, so a non-finite distance
    variance raises ValueError instead, as do fewer than 2 points.
    """
    n = points.shape[0]
    if n < 2:
        raise ValueError("need at least 2 observations")
    with np.errstate(over="ignore", invalid="ignore"):
        d = _distances(points, exact, out)
        row = np.add.reduce(d, axis=1, keepdims=True) / n
        col = np.add.reduce(d, axis=0, keepdims=True) / n
        grand = np.add.reduce(d, axis=None) / (n * n)
        d -= row
        d -= col
        d += grand
        dvar = float(np.add.reduce(np.multiply(d, d, out=scratch), axis=None) / (n * n))
    if not math.isfinite(dvar):
        raise ValueError("distances overflow")
    return d, dvar


def _distance_correlations(sets: list, ys: list):
    """DC of every (feature set, target) pair of an anchor block, and the (mask, reason)
    checks that flag it: an (A, S, T) value array, NaN where a check does.

    sets are the block's feature sets, each a tuple of _Column, and ys its targets, each a
    _Column (or a tuple of them: distance_correlation's y may be multivariate).  At an
    anchor every side is centred (_centered_distances) at most once, from its columns' rows
    at that anchor; a one-column side whose sorted row passes _abs_is_cdist takes
    |xi - xj| as its distances.  The centred matrices are made in (n, n) buffers made once
    per call, one shared by the feature sets and one per target, and squares and products
    in one scratch buffer: a fresh matrix per side would cost its pages at every anchor.  A
    centring that raises is not kept: each pair that reads the side centres it again.

    dCov^2 is the mean elementwise product of the centred matrices (a biased V-statistic),
    clipped at zero.  A constant side is flagged "zero distance variance"; distance
    variances that underflow to zero on non-constant points, and distances or variances
    that overflow, are flagged with what went wrong (non-finite input reads "distances
    overflow"; the scan flags it as such first).  Fewer than 2 observations raise
    ValueError.
    """
    anchors, n = sets[0][0].values.shape
    if n < 2:
        raise ValueError("need at least 2 observations")
    scratch, x_out, *y_outs = (np.empty((n, n)) for _ in range(2 + len(ys)))
    values = np.full((anchors, len(sets), len(ys)), math.nan)
    flags: dict[str, np.ndarray] = {}

    def centring(side: tuple):
        """A side's centring at an anchor into out: its row points and centred distances."""
        exact = _abs_is_cdist(side[0].ordered) if len(side) == 1 else np.zeros(anchors, dtype=bool)

        def centre(row: int, out: np.ndarray):
            if len(side) == 1:
                points = side[0].values[row, :, None]
            else:
                points = np.column_stack([c.values[row] for c in side])
            return points, _centered_distances(points, bool(exact[row]), scratch, out)

        return centre

    x_centres = list(map(centring, sets))
    y_centres = [centring(y if isinstance(y, tuple) else (y,)) for y in ys]
    for row in range(anchors):
        centred_ys = [None] * len(ys)
        for i, centre_x in enumerate(x_centres):
            centred_x = None
            for j, centre_y in enumerate(y_centres):
                try:
                    if centred_x is None:
                        centred_x = centre_x(row, x_out)
                    if centred_ys[j] is None:
                        centred_ys[j] = centre_y(row, y_outs[j])
                    (xp, (a, dvar_x)), (yp, (b, dvar_y)) = centred_x, centred_ys[j]
                    dvar = dvar_x * dvar_y
                    if dvar == 0.0:
                        constant = (xp == xp[0]).all() or (yp == yp[0]).all()
                        raise ValueError(
                            _CONSTANT["DC"] if constant else "distance variance underflows to zero"
                        )
                    if dvar == math.inf:
                        raise ValueError("distances overflow")
                    products = np.add.reduce(np.multiply(a, b, out=scratch), axis=None)
                    dcov2 = max(float(products / (n * n)), 0.0)
                    values[row, i, j] = min(math.sqrt(dcov2 / math.sqrt(dvar)), 1.0)
                except ValueError as exc:
                    flags.setdefault(str(exc), np.zeros(values.shape, dtype=bool))[row, i, j] = True
    return values, [(mask, reason) for reason, mask in flags.items()]


def distance_correlation(x, y) -> MeasureResult:
    """Distance correlation of paired samples; accepts multivariate rows on either side.

    Both pairwise Euclidean distance matrices are double-centered; dCov^2 is
    the mean elementwise product (a biased V-statistic, so independent data
    scores above zero at small n), and tiny negative rounding residue is
    clipped before the square root.  A constant side is degenerate; non-finite
    input, distance variances that underflow to zero on non-constant points,
    and distances or variances that overflow raise ValueError.  The pair is
    scored as a one-anchor block of _Column windows (_distance_correlations).
    """
    xp = as_points(x)
    yp = as_points(y)
    if xp.shape[0] != yp.shape[0]:
        raise ValueError(f"length mismatch: {xp.shape[0]} vs {yp.shape[0]}")
    if xp.shape[0] < 2:
        raise ValueError("need at least 2 observations")
    if not (np.isfinite(xp).all() and np.isfinite(yp).all()):
        raise ValueError("inputs are not finite")
    x, y = (tuple(_Column(c[None, :]) for c in p.T) for p in (xp, yp))
    values, checks = _distance_correlations([x], [y])
    for _, reason in checks:  # at most one, flagging the one anchor
        if reason != _CONSTANT["DC"]:
            raise ValueError(reason)
        return degenerate_result("DC", xp.shape[0], reason)
    return MeasureResult("DC", float(values[0, 0, 0]), xp.shape[0])
