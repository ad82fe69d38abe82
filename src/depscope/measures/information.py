"""Information-theoretic dependence measures on discrete symbols.

MI, IG, RSI_SYNERGY and MIC count through one kernel on integer codes: one
np.unique turns a symbol vector, or a matrix's rows read as fixed-width bytes
(a feature set), into codes that np.bincount counts.
Entropies are in bits with one pinned arithmetic: Python-float terms c / n
summed smallest-first as p * math.log2(p), so results are deterministic and MI
is exactly symmetric.  IG and conditional entropy add their branches in repr
order of the branch symbol ("10" before "2"), whatever the codes are.  Binning
is the caller's: shaping.discretize or equal_frequency_symbols.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .result import MeasureResult

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


def _entropy(codes: np.ndarray) -> float:
    return _entropy_from_counts(np.bincount(codes).tolist(), codes.shape[0])


def _mi_codes(x: np.ndarray, kx: int, y: np.ndarray, ky: int) -> float:
    """I(X;Y) = H(X) + H(Y) - H(X,Y) in bits from codes x < kx and y < ky, clipped at 0.

    A joint table with more cells than observations is counted by sorting.
    """
    n = x.shape[0]
    cells = x * ky + y
    if kx * ky <= n:
        joint = np.bincount(cells).tolist()
    else:
        joint = np.unique(cells, return_counts=True)[1].tolist()
    return max(_entropy(x) + _entropy(y) - _entropy_from_counts(joint, n), 0.0)


def _mi_symbols(xs: np.ndarray, ys: np.ndarray) -> float:
    """I(X;Y) in bits of two paired symbol arrays, each a vector or a matrix of rows."""
    x, x_first = _codes(xs)
    y, y_first = _codes(ys)
    return _mi_codes(x, len(x_first), y, len(y_first))


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
    s, s_first = _codes(parent)
    t, t_first = _codes(branch)
    ks = len(s_first)
    cells, counts = np.unique(t * ks + s, return_counts=True)
    by_branch: list[list[int]] = [[] for _ in range(len(t_first))]
    for b, c in zip((cells // ks).tolist(), counts.tolist()):
        by_branch[b].append(c)
    names = [repr(t) for t in _plain(branch, t_first)]
    order = sorted(range(len(t_first)), key=names.__getitem__)
    n = len(parent)
    weighted = _weighted_entropy([by_branch[b] for b in order], n)
    return MeasureResult("IG", max(_entropy(s) - weighted, 0.0), n)


def redundancy_synergy_index(feature_symbol_lists, y_symbols) -> MeasureResult:
    """Joint information minus the sum of single-feature informations, in bits.

    I(S;Y) - sum_i I(Xi;Y): positive means the set carries synergy beyond its
    parts, negative means the parts are redundant, and a single-feature set
    scores exactly 0.  Set sizes above MAX_SET_SIZE are refused.
    """
    features = [np.asarray(f) for f in feature_symbol_lists]
    if not features:
        raise ValueError("need at least one feature symbol sequence")
    if len(features) > MAX_SET_SIZE:
        raise ValueError(
            f"feature set of size {len(features)} exceeds the capacity limit {MAX_SET_SIZE}"
        )
    joint, y = _paired(np.column_stack(features), y_symbols)
    i_single = 0.0
    for f in features:
        i_single += _mi_symbols(f, y)
    return MeasureResult(
        "RSI_SYNERGY",
        _mi_symbols(joint, y) - i_single,
        len(y),
        params={"set_size": len(features)},
    )


def equal_frequency_symbols(values, bins: int) -> np.ndarray:
    """Bin reals into roughly equal-count bins; symbols are 0..bins-1.

    Edges are linear interpolations between order statistics at the k/bins
    quantiles, computed in plain Python floats so the partition depends only
    on the sorted values.  Ties sitting exactly on an edge go to the upper
    bin.
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
    s = np.sort(v)
    n = v.shape[0]
    edges = []
    for k in range(1, bins):
        pos = (k / bins) * (n - 1)
        lo = int(pos)
        frac = pos - lo
        hi = min(lo + 1, n - 1)
        edges.append(float(s[lo]) + frac * (float(s[hi]) - float(s[lo])))
    return np.searchsorted(np.asarray(edges), v, side="right").astype(np.int64)


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


def mic(x, y) -> MeasureResult:
    """Maximal information coefficient with equal-frequency grid placement.

    Searches every grid shape (gx, gy) with gx, gy >= 2 and gx*gy below the
    sample-size bound max(n**0.6, 5) (0.6 is MIC_ALPHA, fixed), normalizing
    each grid's mutual information by log2(min(gx, gy)); ties prefer the
    smaller gx, then gy.  One partition per shape (equal-frequency on each
    axis) stands in for the exhaustive partition search, which keeps the
    estimate deterministic and fast.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1:
        raise ValueError("inputs must be one-dimensional")
    if xa.shape[0] != ya.shape[0]:
        raise ValueError(f"length mismatch: {xa.shape[0]} vs {ya.shape[0]}")
    n = xa.shape[0]
    if n < 8:
        raise ValueError(f"mic needs at least 8 observations, got {n}")

    x_cache: dict[int, np.ndarray] = {}
    y_cache: dict[int, np.ndarray] = {}
    best = 0.0
    best_grid: tuple[int, int] | None = None
    # The bound is floored so the minimal 2x2 grid stays admissible for the
    # smallest allowed samples.
    bound = max(n**MIC_ALPHA, 5.0)
    for gx, gy in _grid_shapes(bound):
        if gx not in x_cache:
            x_cache[gx] = equal_frequency_symbols(xa, gx)
        if gy not in y_cache:
            y_cache[gy] = equal_frequency_symbols(ya, gy)
        m = _mi_codes(x_cache[gx], gx, y_cache[gy], gy) / math.log2(min(gx, gy))
        if m > best:
            best = m
            best_grid = (gx, gy)
    params = {"alpha": MIC_ALPHA, "bound": bound}
    if best_grid is not None:
        params["grid"] = best_grid
    return MeasureResult("MIC", min(best, 1.0), n, params=params)
