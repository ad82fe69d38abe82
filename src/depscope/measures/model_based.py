"""Model-based predictive power: a small CART regression tree scored against a median baseline."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .result import MeasureResult, as_points, degenerate_result


@dataclass(frozen=True)
class TreeNode:
    """Internal nodes carry a (feature, threshold) split; leaves carry the training mean."""

    value: float
    samples: int
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass(frozen=True)
class RegressionTree:
    root: TreeNode
    max_depth: int
    min_samples_leaf: int
    n_features: int

    def predict(self, X) -> np.ndarray:
        xs = as_points(X)
        if xs.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} feature columns, got {xs.shape[1]}"
            )
        out = np.empty(xs.shape[0])
        self._fill(self.root, xs, np.arange(xs.shape[0]), out)
        return out

    def _fill(self, node: TreeNode, xs: np.ndarray, idx: np.ndarray, out: np.ndarray):
        if node.is_leaf or idx.size == 0:
            out[idx] = node.value
            return
        mask = xs[idx, node.feature] <= node.threshold
        self._fill(node.left, xs, idx[mask], out)
        self._fill(node.right, xs, idx[~mask], out)

    def depth(self) -> int:
        def walk(node: TreeNode) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)

    def leaf_count(self) -> int:
        def walk(node: TreeNode) -> int:
            if node.is_leaf:
                return 1
            return walk(node.left) + walk(node.right)

        return walk(self.root)


class _Presort(NamedTuple):
    """A node's rows in stable ascending order of each feature, one array row per feature."""

    order: np.ndarray  # row indices
    values: np.ndarray  # their feature values
    targets: np.ndarray  # their targets

    def keep(self, mask: np.ndarray, count: int) -> "_Presort":
        """The presort of a subset: a stable filter is the subset's own stable order."""
        keep = mask[self.order]
        features = self.order.shape[0]
        return _Presort(*(a[keep].reshape(features, count) for a in self))


def _best_split(node: _Presort, total, total_sq, min_leaf: int):
    """The (feature, threshold, k) split of a node with the lowest child SSE, or None.

    total and total_sq are the node's target sums.  The child SSEs of every
    split point k in [min_leaf, n - min_leaf] form one (feature, k) array,
    tied neighbours masked with inf.  Its row-major first minimum is the
    lowest feature index and then the lowest threshold among equal SSEs, and
    it must strictly improve on the parent's SSE.  The threshold is the
    midpoint of the values either side of k, or the lower value when the
    midpoint rounds up to the upper one or overflows, as in scikit-learn's
    splitter, so the first k rows, and only they, are at or below it.
    """
    sv, sy = node.values, node.targets
    n = sy.shape[1]
    parent_sse = total_sq - total * total / n
    lo, hi = min_leaf, n - min_leaf  # split point k: rows [0, k) go left, for k in [lo, hi]
    k = np.arange(lo, hi + 1)
    csum = np.add.accumulate(sy, axis=1)[:, lo - 1 : hi]
    csq = np.add.accumulate(sy * sy, axis=1)[:, lo - 1 : hi]
    left_sse = csq - csum * csum / k
    rsum = total - csum
    right_sse = (total_sq - csq) - rsum * rsum / (n - k)
    sse = np.maximum(left_sse, 0.0) + np.maximum(right_sse, 0.0)
    sse[sv[:, lo - 1 : hi] == sv[:, lo : hi + 1]] = np.inf
    f, i = divmod(int(sse.argmin()), k.shape[0])
    if not sse[f, i] < parent_sse:
        return None
    at = lo + i
    lower, upper = float(sv[f, at - 1]), float(sv[f, at])
    threshold = (lower + upper) / 2.0
    if not (math.isfinite(threshold) and threshold < upper):
        threshold = lower
    return f, threshold, at


def _grow(ys, rows, node: _Presort | None, depth_left: int, min_leaf: int, out) -> TreeNode:
    """The subtree of a node's rows (ascending); its leaves write their value to out[rows].

    node is the rows' presort, None when the node cannot split.
    """
    node_ys = ys[rows]
    n = rows.shape[0]
    total = node_ys.sum()
    value = float(total / n)  # node_ys.mean(), bit for bit
    found = None if node is None else _best_split(node, total, (node_ys * node_ys).sum(), min_leaf)
    if found is None:
        out[rows] = value
        return TreeNode(value=value, samples=n)
    f, threshold, k = found
    left = np.zeros(ys.shape[0], dtype=bool)
    left[node.order[f, :k]] = True
    children = []
    for side, count in ((left, k), (~left, n - k)):
        splits = depth_left > 1 and count >= 2 * min_leaf
        child = node.keep(side, count) if splits else None
        children.append(_grow(ys, rows[side[rows]], child, depth_left - 1, min_leaf, out))
    return TreeNode(value, n, f, threshold, *children)


def _check_finite(xs: np.ndarray, ys: np.ndarray) -> None:
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("inputs are not finite")


def _fit(xs: np.ndarray, ys: np.ndarray, max_depth: int, min_samples_leaf: int, order=None):
    """The root of the fitted tree and its in-sample predictions, read off the leaves.

    order is each feature column's stable argsort, stacked by feature; it is
    made here when not given.
    """
    if ys.ndim != 1 or ys.shape[0] != xs.shape[0]:
        raise ValueError("y must be a vector matching X row count")
    if ys.shape[0] == 0:
        raise ValueError("need at least one observation")
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    if min_samples_leaf < 1:
        raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
    _check_finite(xs, ys)
    bound = float(np.abs(ys).sum())  # bound**2 caps every squared sum the split scan forms
    if not math.isfinite(bound * bound):
        raise ValueError("targets overflow the split scan's squared sums")
    n = ys.shape[0]
    root = None
    if max_depth > 0 and n >= 2 * min_samples_leaf:
        xt = np.ascontiguousarray(xs.T)
        if order is None:
            order = np.argsort(xt, axis=1, kind="stable")
        root = _Presort(order, np.take_along_axis(xt, order, axis=1), ys[order])
    out = np.empty(n)
    return _grow(ys, np.arange(n), root, max_depth, min_samples_leaf, out), out


def fit_regression_tree(X, y, max_depth: int = 4, min_samples_leaf: int = 5) -> RegressionTree:
    """Greedy variance-reduction CART fit; deterministic for identical input.

    Splits must strictly reduce the summed squared error, every leaf keeps at
    least min_samples_leaf rows, and max_depth 0 yields the mean predictor.
    Each feature is sorted once, at the root, as in SLIQ's presorting.
    Non-finite input, or targets whose squared sums overflow float64, is refused.
    """
    xs = as_points(X)
    root, _ = _fit(xs, np.asarray(y, dtype=np.float64), max_depth, min_samples_leaf)
    return RegressionTree(
        root=root,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        n_features=xs.shape[1],
    )


def naive_median_mae(y) -> float:
    """Mean absolute error of always predicting the median (midpoint for even counts)."""
    ys = np.asarray(y, dtype=np.float64)
    if ys.ndim != 1 or ys.shape[0] == 0:
        raise ValueError("y must be a non-empty vector")
    return float(np.mean(np.abs(ys - np.median(ys))))


def pps(X, y, max_depth: int = 4, min_samples_leaf: int = 5) -> MeasureResult:
    """Predictive power score: 1 - MAE(tree)/MAE(median baseline), floored at 0.

    The tree is fitted and scored in sample on the same rows, so the score
    is deterministic and reads how well the features can describe the
    target, not how well they forecast unseen rows.  Non-finite input is
    refused before anything else; a constant target then makes the baseline
    MAE zero and the score degenerate.
    """
    xs = as_points(X)
    ys = np.asarray(y, dtype=np.float64)
    if ys.ndim != 1 or ys.shape[0] != xs.shape[0]:
        raise ValueError("y must be a vector matching X row count")
    _check_finite(xs, ys)
    return _pps(xs, ys, None, max_depth, min_samples_leaf)


def _pps(xs: np.ndarray, ys: np.ndarray, order, max_depth: int = 4, min_samples_leaf: int = 5):
    """pps of finite paired rows; order is as _fit takes it."""
    n = ys.shape[0]
    params = {"max_depth": max_depth, "min_samples_leaf": min_samples_leaf}
    baseline = naive_median_mae(ys)
    if baseline == 0.0:
        return degenerate_result("PPS", n, "constant target", **params)

    _, predictions = _fit(xs, ys, max_depth, min_samples_leaf, order)
    mae_model = float(np.mean(np.abs(ys - predictions)))
    raw = 1.0 - mae_model / baseline
    params["raw"] = raw
    params["mae_model"] = mae_model
    params["mae_baseline"] = baseline
    return MeasureResult("PPS", min(max(raw, 0.0), 1.0), n, params=params)
