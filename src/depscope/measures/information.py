"""Information-theoretic dependence measures on discrete symbols.

All entropies are in bits and are computed from exact empirical count
tables.  Probability terms are summed smallest-first in plain Python floats,
which makes results deterministic and keeps symmetric quantities exactly
symmetric.  Continuous data must be binned by the caller: fixed-width bins
via shaping.discretize, equal-frequency bins via equal_frequency_symbols.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .result import MeasureResult, degenerate_result

PROBABILITY_TOL = 1e-12
MAX_SET_SIZE = 3  # synergy capacity limit: the joint table grows multiplicatively


def _canon(symbol):
    """Normalize numpy scalars and sequences to plain hashable Python values."""
    if isinstance(symbol, np.generic):
        return symbol.item()
    if isinstance(symbol, (tuple, list, np.ndarray)):
        return tuple(_canon(s) for s in symbol)
    return symbol


def _entropy_from_probs(probs) -> float:
    ps = sorted(p for p in probs if p > 0.0)
    total = 0.0
    for p in ps:
        total += p * math.log2(p)
    return -total if total != 0.0 else 0.0


def _entropy_from_counts(counts, n: int) -> float:
    return _entropy_from_probs(c / n for c in counts if c)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability mass function over hashable symbols."""

    probabilities: dict

    def __post_init__(self):
        probs = {_canon(s): float(p) for s, p in self.probabilities.items()}
        if not probs:
            raise ValueError("distribution needs at least one symbol")
        if any(p < 0.0 for p in probs.values()):
            raise ValueError("probabilities must be non-negative")
        total = math.fsum(probs.values())
        if abs(total - 1.0) > PROBABILITY_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "probabilities", probs)

    @classmethod
    def from_symbols(cls, symbols) -> "DiscreteDistribution":
        counts: dict = {}
        n = 0
        for s in symbols:
            counts[_canon(s)] = counts.get(_canon(s), 0) + 1
            n += 1
        if n == 0:
            raise ValueError("empty symbol sequence")
        return cls({s: c / n for s, c in counts.items()})

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
        xs = list(xs)
        ys = list(ys)
        if len(xs) != len(ys):
            raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
        if not xs:
            raise ValueError("empty symbol sequences")
        counts: dict = {}
        for x, y in zip(xs, ys):
            key = (_canon(x), _canon(y))
            counts[key] = counts.get(key, 0) + 1
        return cls(counts, len(xs))

    def marginal_x(self) -> DiscreteDistribution:
        acc: dict = {}
        for (x, _), c in self.counts.items():
            acc[x] = acc.get(x, 0) + c
        return DiscreteDistribution({s: c / self.n for s, c in acc.items()})

    def marginal_y(self) -> DiscreteDistribution:
        acc: dict = {}
        for (_, y), c in self.counts.items():
            acc[y] = acc.get(y, 0) + c
        return DiscreteDistribution({s: c / self.n for s, c in acc.items()})

    def swapped(self) -> "JointHistogram":
        return JointHistogram({(y, x): c for (x, y), c in self.counts.items()}, self.n)


def entropy(dist: DiscreteDistribution) -> float:
    """Shannon entropy in bits: -sum p log2 p, with 0 log 0 taken as 0."""
    return _entropy_from_probs(dist.probabilities.values())


def conditional_entropy(joint: JointHistogram) -> float:
    """H(X|Y) in bits: the y-weighted average entropy of the conditional columns."""
    by_y: dict = {}
    for (x, y), c in joint.counts.items():
        by_y.setdefault(y, {})[x] = c
    total = 0.0
    for y in sorted(by_y, key=repr):
        cell = by_y[y]
        ny = sum(cell.values())
        total += (ny / joint.n) * _entropy_from_counts(cell.values(), ny)
    return total


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
    parent = [_canon(s) for s in parent_symbols]
    assignment = [_canon(s) for s in child_assignment]
    if len(parent) != len(assignment):
        raise ValueError(f"length mismatch: {len(parent)} vs {len(assignment)}")
    if not parent:
        raise ValueError("empty symbol sequences")
    n = len(parent)
    counts: dict = {}
    for s in parent:
        counts[s] = counts.get(s, 0) + 1
    h_parent = _entropy_from_counts(counts.values(), n)

    branches: dict = {}
    for s, t in zip(parent, assignment):
        cell = branches.setdefault(t, {})
        cell[s] = cell.get(s, 0) + 1
    weighted = 0.0
    for t in sorted(branches, key=repr):
        cell = branches[t]
        nt = sum(cell.values())
        weighted += (nt / n) * _entropy_from_counts(cell.values(), nt)
    return MeasureResult("IG", max(h_parent - weighted, 0.0), n)


def redundancy_synergy_index(feature_symbol_lists, y_symbols) -> MeasureResult:
    """Joint information minus the sum of single-feature informations, in bits.

    I(S;Y) - sum_i I(Xi;Y): positive means the set carries synergy beyond its
    parts, negative means the parts are redundant, and a single-feature set
    scores exactly 0.  Set sizes above MAX_SET_SIZE are refused.
    """
    features = [list(f) for f in feature_symbol_lists]
    if not features:
        raise ValueError("need at least one feature symbol sequence")
    if len(features) > MAX_SET_SIZE:
        raise ValueError(
            f"feature set of size {len(features)} exceeds the capacity limit {MAX_SET_SIZE}"
        )
    y = list(y_symbols)
    for f in features:
        if len(f) != len(y):
            raise ValueError("feature and target symbol sequences must share a length")
    joint_symbols = list(zip(*features))
    i_joint = mutual_information(JointHistogram.from_symbols(joint_symbols, y)).value
    i_single = 0.0
    for f in features:
        i_single += mutual_information(JointHistogram.from_symbols(f, y)).value
    return MeasureResult(
        "RSI_SYNERGY",
        i_joint - i_single,
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


def _grid_shapes(n: int, alpha: float) -> list[tuple[int, int]]:
    # The bound is floored so the minimal 2x2 grid stays admissible for the
    # smallest allowed samples.
    bound = max(n**alpha, 5.0)
    shapes = []
    gx = 2
    while gx * 2 < bound:
        gy = 2
        while gx * gy < bound:
            shapes.append((gx, gy))
            gy += 1
        gx += 1
    return shapes


def _normalized_grid_mi(xsym: np.ndarray, gx: int, ysym: np.ndarray, gy: int, n: int) -> float:
    joint = np.bincount(xsym * gy + ysym, minlength=gx * gy)
    hx = _entropy_from_counts(np.bincount(xsym, minlength=gx).tolist(), n)
    hy = _entropy_from_counts(np.bincount(ysym, minlength=gy).tolist(), n)
    hxy = _entropy_from_counts(joint.tolist(), n)
    return max(hx + hy - hxy, 0.0) / math.log2(min(gx, gy))


def mic(x, y, alpha: float = 0.6) -> MeasureResult:
    """Maximal information coefficient with equal-frequency grid placement.

    Searches every grid shape (gx, gy) with gx, gy >= 2 and gx*gy below the
    sample-size bound n**alpha, normalizing each grid's mutual information by
    log2(min(gx, gy)); ties prefer the smaller gx, then gy.  One partition per
    shape (equal-frequency on each axis) stands in for the exhaustive
    partition search, which keeps the estimate deterministic and fast.
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
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")

    x_cache: dict[int, np.ndarray] = {}
    y_cache: dict[int, np.ndarray] = {}
    best = 0.0
    best_grid: tuple[int, int] | None = None
    for gx, gy in _grid_shapes(n, alpha):
        if gx not in x_cache:
            x_cache[gx] = equal_frequency_symbols(xa, gx)
        if gy not in y_cache:
            y_cache[gy] = equal_frequency_symbols(ya, gy)
        m = _normalized_grid_mi(x_cache[gx], gx, y_cache[gy], gy, n)
        if m > best:
            best = m
            best_grid = (gx, gy)
    params = {"alpha": float(alpha), "bound": float(max(n**alpha, 5.0))}
    if best_grid is not None:
        params["grid"] = best_grid
    return MeasureResult("MIC", min(best, 1.0), n, params=params)
