"""Model-based predictive power: a small CART regression tree scored against a median baseline."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .result import MeasureResult, degenerate_result


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
        xs = _as_matrix(X)
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


def _as_matrix(X) -> np.ndarray:
    xs = np.asarray(X, dtype=np.float64)
    if xs.ndim == 1:
        xs = xs[:, None]
    if xs.ndim != 2:
        raise ValueError("X must be a vector or a matrix of row observations")
    return xs


def _best_split(xs: np.ndarray, ys: np.ndarray, min_leaf: int):
    """Scan (feature, midpoint threshold) candidates for the lowest child SSE.

    Features are visited in index order and thresholds in ascending order
    with strict improvement required, so ties resolve to the lowest feature
    index and then the lowest threshold.
    """
    n = ys.shape[0]
    total = ys.sum()
    total_sq = (ys * ys).sum()
    parent_sse = total_sq - total * total / n
    best = None
    best_sse = parent_sse
    for f in range(xs.shape[1]):
        order = np.argsort(xs[:, f], kind="stable")
        sv = xs[order, f]
        sy = ys[order]
        csum = np.cumsum(sy)
        csq = np.cumsum(sy * sy)
        for k in range(min_leaf, n - min_leaf + 1):
            if sv[k - 1] == sv[k]:
                continue
            left_sse = csq[k - 1] - csum[k - 1] * csum[k - 1] / k
            rsum = total - csum[k - 1]
            right_sse = (total_sq - csq[k - 1]) - rsum * rsum / (n - k)
            sse = max(left_sse, 0.0) + max(right_sse, 0.0)
            if sse < best_sse:
                best_sse = sse
                best = (f, (sv[k - 1] + sv[k]) / 2.0, k)
    return best


def _grow(xs: np.ndarray, ys: np.ndarray, depth_left: int, min_leaf: int) -> TreeNode:
    node_value = float(ys.mean())
    n = ys.shape[0]
    if depth_left == 0 or n < 2 * min_leaf:
        return TreeNode(value=node_value, samples=n)
    found = _best_split(xs, ys, min_leaf)
    if found is None:
        return TreeNode(value=node_value, samples=n)
    f, threshold, _ = found
    mask = xs[:, f] <= threshold
    return TreeNode(
        value=node_value,
        samples=n,
        feature=f,
        threshold=float(threshold),
        left=_grow(xs[mask], ys[mask], depth_left - 1, min_leaf),
        right=_grow(xs[~mask], ys[~mask], depth_left - 1, min_leaf),
    )


def fit_regression_tree(X, y, max_depth: int = 4, min_samples_leaf: int = 5) -> RegressionTree:
    """Greedy variance-reduction CART fit; deterministic for identical input.

    Splits must strictly reduce the summed squared error, every leaf keeps at
    least min_samples_leaf rows, and max_depth 0 yields the mean predictor.
    Non-finite targets, or targets whose squared sums overflow float64, are refused.
    """
    xs = _as_matrix(X)
    ys = np.asarray(y, dtype=np.float64)
    if ys.ndim != 1 or ys.shape[0] != xs.shape[0]:
        raise ValueError("y must be a vector matching X row count")
    if ys.shape[0] == 0:
        raise ValueError("need at least one observation")
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    if min_samples_leaf < 1:
        raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
    bound = float(np.abs(ys).sum())  # bound**2 caps every squared sum the split scan forms
    if not math.isfinite(bound * bound):
        raise ValueError("targets are non-finite or overflow the split scan's squared sums")
    root = _grow(xs, ys, max_depth, min_samples_leaf)
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
    target, not how well they forecast unseen rows.  A constant target makes
    the baseline MAE zero and the score degenerate.
    """
    xs = _as_matrix(X)
    ys = np.asarray(y, dtype=np.float64)
    if ys.ndim != 1 or ys.shape[0] != xs.shape[0]:
        raise ValueError("y must be a vector matching X row count")
    n = ys.shape[0]
    params = {"max_depth": max_depth, "min_samples_leaf": min_samples_leaf}
    baseline = naive_median_mae(ys)
    if baseline == 0.0:
        return degenerate_result("PPS", n, "constant target", **params)

    tree = fit_regression_tree(xs, ys, max_depth, min_samples_leaf)
    mae_model = float(np.mean(np.abs(ys - tree.predict(xs))))
    raw = 1.0 - mae_model / baseline
    params["raw"] = raw
    params["mae_model"] = mae_model
    params["mae_baseline"] = baseline
    return MeasureResult("PPS", min(max(raw, 0.0), 1.0), n, params=params)
