"""Information-theoretic dependence measures on discrete symbols.

MI, IG, RSI_SYNERGY and MIC count through one kernel on integer codes: one
np.unique turns a symbol vector, or a matrix's rows read as fixed-width bytes
(a feature set), into codes that np.bincount counts.
Entropies are in bits with one pinned arithmetic: Python-float terms c / n
summed smallest-first as p * math.log2(p), so results are deterministic and MI
is exactly symmetric.  Counts of n observations look their terms up in a
table cached per n (_terms, as MIC's grid is in _mic_grid) and add them with
np.cumsum, which sums in the same order and so gives the same bits.  IG and
conditional entropy add their branches in repr order of the branch symbol
("10" before "2"), whatever the codes are.  Binning is the caller's: shaping.discretize or
equal_frequency_symbols.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .result import MeasureResult, paired_vectors

PROBABILITY_TOL = 1e-12
MAX_SET_SIZE = 3  # synergy capacity limit: the joint table grows multiplicatively
MIC_ALPHA = 0.6  # MIC grids need gx * gy below n ** MIC_ALPHA


def _canon(symbol):
    """Normalize numpy scalars and sequences to plain hashable Python values."""
    if isinstance(symbol, np.generic):
        return symbol.item()
    if isinstance(symbol, (tuple, list, np.ndarray)):
        return tuple(_canon(s) for s in symbol)
    return symbol


def _plain(symbols: np.ndarray, rows: np.ndarray) -> list:
    """The given rows as the plain Python symbols _canon makes of them."""
    values = symbols[rows].tolist()
    if symbols.dtype == object:
        return [_canon(v) for v in values]
    return [tuple(v) for v in values] if symbols.ndim == 2 else values


def _entropy_from_counts(counts, n) -> float:
    """Entropy in bits from the terms p = c / n of positive counts, added smallest-first.

    Probabilities go in as counts with n = 1.
    """
    total = 0.0
    for p in sorted(c / n for c in counts if c > 0):
        total += p * math.log2(p)
    return -total if total != 0.0 else 0.0


def _paired(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Two symbol sequences as arrays of one shared, non-zero length."""
    xa = np.asarray(xs)
    ya = np.asarray(ys)
    if len(xa) != len(ya):
        raise ValueError(f"length mismatch: {len(xa)} vs {len(ya)}")
    if not len(xa):
        raise ValueError("empty symbol sequences")
    return xa, ya


def _codes(symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense codes 0..k-1 of a symbol vector or of a matrix's rows, and each code's first row.

    Rows are read as fixed-width bytes, which is far cheaper than
    np.unique(axis=0); adding 0.0 to float rows keeps -0.0 and 0.0 one symbol.
    """
    if symbols.ndim == 2:
        rows = np.ascontiguousarray(symbols + 0.0 if symbols.dtype.kind == "f" else symbols)
        symbols = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    elif symbols.ndim != 1:
        raise ValueError("symbols must be a vector or a matrix of symbol rows")
    _, first, codes = np.unique(symbols, return_index=True, return_inverse=True)
    return codes, first


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=256)
def _terms(n: int) -> np.ndarray:
    """T[c] = (c / n) * log2(c / n) for c = 0..n in Python floats, T[0] = 0.0; read-only."""
    return _read_only(np.array([0.0] + [(c / n) * math.log2(c / n) for c in range(1, n + 1)]))


class _MicGrid(NamedTuple):
    """MIC's admissible grid shapes for one sample size, in search order."""

    bound: float
    shapes: tuple[tuple[int, int], ...]
    gx: np.ndarray
    gy: np.ndarray
    cells: int  # the largest gx * gy: each shape counts its joint table in a row this wide
    divisors: np.ndarray  # log2(min(gx, gy))


@functools.lru_cache(maxsize=256)
def _mic_grid(n: int) -> _MicGrid:
    """MIC's grid for n observations; every caller shares it, so its arrays are read-only."""
    # The bound is floored so the minimal 2x2 grid stays admissible for the
    # smallest allowed samples.
    bound = max(n**MIC_ALPHA, 5.0)
    shapes = tuple(_grid_shapes(bound))
    gx = _read_only(np.array([s[0] for s in shapes]))
    gy = _read_only(np.array([s[1] for s in shapes]))
    divisors = _read_only(np.array([math.log2(min(s)) for s in shapes]))
    return _MicGrid(bound, shapes, gx, gy, int((gx * gy).max()), divisors)


def _table_entropy(counts: np.ndarray, terms: np.ndarray):
    """_entropy_from_counts of each row of counts, bit for bit, from the terms table of their n.

    Sorting counts sorts their p, equal counts give equal terms, zero counts
    add 0.0 ahead of the rest, and cumsum adds in order; 0.0 - total turns
    a zero total into +0.0 as the loop does.
    """
    return 0.0 - np.cumsum(terms[np.sort(counts, axis=-1)], axis=-1)[..., -1]


class _Coded(NamedTuple):
    """A symbol vector or matrix of symbol rows as dense codes 0..k-1, with its entropy."""

    symbols: np.ndarray
    codes: np.ndarray
    first: np.ndarray  # the first row of each code
    entropy: float


def _coded(symbols: np.ndarray) -> _Coded:
    codes, first = _codes(symbols)
    entropy = float(_table_entropy(np.bincount(codes), _terms(codes.shape[0])))
    return _Coded(symbols, codes, first, entropy)


def _mi(x: _Coded, y: _Coded) -> float:
    """I(X;Y) = H(X) + H(Y) - H(X,Y) in bits of two coded sides, clipped at 0.

    A joint table with more cells than observations is counted by sorting.
    """
    n = x.codes.shape[0]
    ky = len(y.first)
    cells = x.codes * ky + y.codes
    if len(x.first) * ky <= n:
        joint = np.bincount(cells)
    else:
        joint = np.unique(cells, return_counts=True)[1]
    return max(x.entropy + y.entropy - float(_table_entropy(joint, _terms(n))), 0.0)


def _weighted_entropy(branches, n: int) -> float:
    """sum_t p(t) H(S|t) in bits over per-branch count lists, added in the order given."""
    total = 0.0
    for cell in branches:
        if len(cell) > 1:  # a pure branch adds exactly 0.0
            nt = sum(cell)
            total += (nt / n) * _entropy_from_counts(cell, nt)
    return total


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability mass function over hashable symbols."""

    probabilities: dict

    def __post_init__(self):
        probs = {_canon(s): float(p) for s, p in self.probabilities.items()}
        if not probs:
            raise ValueError("distribution needs at least one symbol")
        if not all(p >= 0.0 for p in probs.values()):
            raise ValueError("probabilities must be non-negative numbers")
        total = math.fsum(probs.values())
        if abs(total - 1.0) > PROBABILITY_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "probabilities", probs)

    @classmethod
    def from_symbols(cls, symbols) -> "DiscreteDistribution":
        values = np.asarray(symbols)
        if not len(values):
            raise ValueError("empty symbol sequence")
        codes, first = _codes(values)
        n = len(values)
        counts = np.bincount(codes).tolist()
        return cls({s: c / n for s, c in zip(_plain(values, first), counts)})

    def __len__(self) -> int:
        return len(self.probabilities)


@dataclass(frozen=True)
class JointHistogram:
    """Exact joint counts over (x, y) symbol pairs."""

    counts: dict
    n: int

    def __post_init__(self):
        counts = {
            (_canon(x), _canon(y)): int(c) for (x, y), c in self.counts.items()
        }
        if not counts:
            raise ValueError("joint histogram needs at least one cell")
        if any(c <= 0 for c in counts.values()):
            raise ValueError("cell counts must be positive")
        total = sum(counts.values())
        if total != self.n:
            raise ValueError(f"cell counts sum to {total}, declared n is {self.n}")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_symbols(cls, xs, ys) -> "JointHistogram":
        xa, ya = _paired(xs, ys)
        x, _ = _codes(xa)
        y, y_first = _codes(ya)
        _, first, counts = np.unique(x * len(y_first) + y, return_index=True, return_counts=True)
        cells = zip(_plain(xa, first), _plain(ya, first))
        return cls(dict(zip(cells, counts.tolist())), len(xa))

    def _marginal(self, axis: int) -> DiscreteDistribution:
        acc: dict = {}
        for cell, c in self.counts.items():
            acc[cell[axis]] = acc.get(cell[axis], 0) + c
        return DiscreteDistribution({s: c / self.n for s, c in acc.items()})

    def marginal_x(self) -> DiscreteDistribution:
        return self._marginal(0)

    def marginal_y(self) -> DiscreteDistribution:
        return self._marginal(1)

    def swapped(self) -> "JointHistogram":
        return JointHistogram({(y, x): c for (x, y), c in self.counts.items()}, self.n)


def entropy(dist: DiscreteDistribution) -> float:
    """Shannon entropy in bits: -sum p log2 p, with 0 log 0 taken as 0."""
    return _entropy_from_counts(dist.probabilities.values(), 1)


def conditional_entropy(joint: JointHistogram) -> float:
    """H(X|Y) in bits: the y-weighted average entropy of the conditional columns."""
    by_y: dict = {}
    for (_, y), c in joint.counts.items():
        by_y.setdefault(y, []).append(c)
    return _weighted_entropy([by_y[y] for y in sorted(by_y, key=repr)], joint.n)


def mutual_information(joint: JointHistogram) -> MeasureResult:
    """Mutual information in bits from exact empirical tables.

    Evaluated as H(X) + H(Y) - H(X,Y), which is exactly symmetric under
    swapping the axes; tiny negative rounding residue is clipped to 0.
    """
    hx = entropy(joint.marginal_x())
    hy = entropy(joint.marginal_y())
    hxy = _entropy_from_counts(joint.counts.values(), joint.n)
    return MeasureResult("MI", max(hx + hy - hxy, 0.0), joint.n)


def information_gain(parent_symbols, child_assignment) -> MeasureResult:
    """Entropy drop of the parent symbols under a split: H(S) - sum_t p(t) H(S|t).

    child_assignment labels each observation with the branch it falls into.
    Numerically this coincides with the mutual information between the two
    labelings.
    """
    parent, branch = _paired(parent_symbols, child_assignment)
    return _information_gain(_coded(parent), _coded(branch))


def _information_gain(s: _Coded, t: _Coded) -> MeasureResult:
    ks = len(s.first)
    cells, counts = np.unique(t.codes * ks + s.codes, return_counts=True)
    by_branch: list[list[int]] = [[] for _ in range(len(t.first))]
    for b, c in zip((cells // ks).tolist(), counts.tolist()):
        by_branch[b].append(c)
    names = [repr(v) for v in _plain(t.symbols, t.first)]
    order = sorted(range(len(t.first)), key=names.__getitem__)
    n = s.codes.shape[0]
    weighted = _weighted_entropy([by_branch[b] for b in order], n)
    return MeasureResult("IG", max(s.entropy - weighted, 0.0), n)


def _check_set_size(size: int) -> None:
    if size > MAX_SET_SIZE:
        raise ValueError(f"feature set of size {size} exceeds the capacity limit {MAX_SET_SIZE}")


def redundancy_synergy_index(feature_symbol_lists, y_symbols) -> MeasureResult:
    """Joint information minus the sum of single-feature informations, in bits.

    I(S;Y) - sum_i I(Xi;Y): positive means the set carries synergy beyond its
    parts, negative means the parts are redundant, and a single-feature set
    scores exactly 0.  Set sizes above MAX_SET_SIZE are refused.
    """
    features = [np.asarray(f) for f in feature_symbol_lists]
    if not features:
        raise ValueError("need at least one feature symbol sequence")
    _check_set_size(len(features))
    joint, y = _paired(np.column_stack(features), y_symbols)
    singles = [_coded(f) for f in features]
    return _synergy(_coded(joint), singles, _coded(y))


def _synergy(joint: _Coded, singles: list[_Coded], y: _Coded) -> MeasureResult:
    i_single = 0.0
    for f in singles:
        i_single += _mi(f, y)
    return MeasureResult(
        "RSI_SYNERGY",
        _mi(joint, y) - i_single,
        y.codes.shape[0],
        params={"set_size": len(singles)},
    )


@functools.lru_cache(maxsize=256)
def _quantile_steps(n: int, counts: tuple[int, ...]):
    """Where equal_frequency_symbols puts the edges of n sorted values, for each count in counts.

    Edge k of g bins sits at pos = (k / g) * (n - 1), between order statistics
    lo = int(pos) and hi = min(lo + 1, n - 1) at fraction pos - lo; the steps
    are taken in Python floats, edges of all counts laid end to end.  Returns
    lo, hi, the fractions and each count's (start, stop) span of the edges.
    """
    lo, frac, spans = [], [], []
    for g in counts:
        spans.append((len(lo), len(lo) + g - 1))
        for k in range(1, g):
            pos = (k / g) * (n - 1)
            lo.append(int(pos))
            frac.append(pos - int(pos))
    lo = _read_only(np.array(lo, dtype=np.intp))
    hi = _read_only(np.minimum(lo + 1, n - 1))
    return lo, hi, _read_only(np.array(frac)), tuple(spans)


def _equal_frequency_codes(
    values: np.ndarray, ordered: np.ndarray, counts: tuple[int, ...]
) -> list[np.ndarray]:
    """equal_frequency_symbols of finite values at each bin count (>= 2) in counts, as a list.

    ordered is the values sorted ascending, so one sort serves every count.
    Each edge is s[lo] + frac * (s[hi] - s[lo]), the arithmetic of the plain
    float loop.  Only values that span more than float64 can make a
    difference inf, and 0 * inf NaN; that is as silent as in Python floats.
    """
    lo, hi, frac, spans = _quantile_steps(values.shape[0], counts)
    low = ordered[lo]
    with np.errstate(over="ignore", invalid="ignore"):
        edges = low + frac * (ordered[hi] - low)
    return [np.searchsorted(edges[a:b], values, side="right") for a, b in spans]


def equal_frequency_symbols(values, bins: int) -> np.ndarray:
    """Bin reals into roughly equal-count bins; symbols are 0..bins-1.

    Edges are linear interpolations between order statistics at the k/bins
    quantiles, with positions taken in plain Python floats, so the partition
    depends only on the sorted values; the scan makes the same codes for
    every bin count it needs from one sort per column window.  Ties sitting
    exactly on an edge go to the upper bin.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] == 0:
        raise ValueError("values must be a non-empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    if bins == 1:
        return np.zeros(v.shape[0], dtype=np.int64)
    return _equal_frequency_codes(v, np.sort(v), (bins,))[0]


def _grid_shapes(bound: float) -> list[tuple[int, int]]:
    shapes = []
    gx = 2
    while gx * 2 < bound:
        gy = 2
        while gx * gy < bound:
            shapes.append((gx, gy))
            gy += 1
        gx += 1
    return shapes


def _mic_marginals(bins, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One side of MIC: its equal-frequency codes for g = 2..gmax stacked by row, and their entropies.

    bins(counts) gives the side's codes at each bin count in counts, as a list.
    """
    if n < 8:
        raise ValueError(f"mic needs at least 8 observations, got {n}")
    gmax = int(_mic_grid(n).gx[-1])  # the largest gx; gy tops out at the same value
    codes = np.stack(bins(tuple(range(2, gmax + 1))))
    offsets = gmax * np.arange(codes.shape[0])[:, None]
    counts = np.bincount((codes + offsets).ravel(), minlength=codes.shape[0] * gmax)
    return codes, _table_entropy(counts.reshape(-1, gmax), _terms(n))


def _mic(x_marginals, y_marginals) -> MeasureResult:
    """MIC from both sides' _mic_marginals: every grid shape's joint table counted in one batch."""
    (xc, hx), (yc, hy) = x_marginals, y_marginals
    n = xc.shape[1]
    grid = _mic_grid(n)
    offsets = grid.cells * np.arange(len(grid.shapes))[:, None]
    cells = xc[grid.gx - 2] * grid.gy[:, None] + yc[grid.gy - 2] + offsets
    joint = np.bincount(cells.ravel(), minlength=len(grid.shapes) * grid.cells)
    hxy = _table_entropy(joint.reshape(-1, grid.cells), _terms(n))
    m = np.maximum(hx[grid.gx - 2] + hy[grid.gy - 2] - hxy, 0.0) / grid.divisors
    best = int(np.argmax(m))  # the first of equal maxima: ties prefer the smaller gx, then gy
    params = {"alpha": MIC_ALPHA, "bound": grid.bound}
    if not m[best] > 0.0:
        return MeasureResult("MIC", 0.0, n, params=params)
    params["grid"] = grid.shapes[best]
    return MeasureResult("MIC", min(float(m[best]), 1.0), n, params=params)


def mic(x, y) -> MeasureResult:
    """Maximal information coefficient with equal-frequency grid placement.

    Searches every grid shape (gx, gy) with gx, gy >= 2 and gx*gy below the
    sample-size bound max(n**0.6, 5) (0.6 is MIC_ALPHA, fixed), normalizing
    each grid's mutual information by log2(min(gx, gy)); ties prefer the
    smaller gx, then gy.  One partition per shape (equal-frequency on each
    axis) stands in for the exhaustive partition search, which keeps the
    estimate deterministic and fast.
    """
    xa, ya = paired_vectors(x, y)
    n = xa.shape[0]
    return _mic(_mic_marginals(_binner(xa), n), _mic_marginals(_binner(ya), n))


def _binner(values: np.ndarray):
    """_mic_marginals' bins of one side; non-finite values raise as in equal_frequency_symbols."""

    def bins(counts):
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        return _equal_frequency_codes(values, np.sort(values), counts)

    return bins
