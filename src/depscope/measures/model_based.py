"""Model-based predictive power: a small CART regression tree scored against a median baseline.

The trees of a stack of anchors grow together, breadth first, as in SLIQ
(Mehta, Agrawal & Rissanen 1996): each feature column is sorted once, at
the root; each level scans every split of every feature of every node
that can still split, in every anchor, in one zero-padded pass; and a
child's presort is a stable filter of its parent's padded rows.  Each
node's arithmetic is that of a node grown on its own, so the trees are
the same bit for bit: every node's total is np.add.reduce's, taken for
the nodes of each size at once as the rows of one matrix.  No tree is
kept: a row's fitted value is written at each level it reaches, so the
last one written is its leaf's mean.  pps grows a stack of one; a scan's
block kernel, _ppss, grows a block's (feature set, target) pairs in stacks.
"""
from __future__ import annotations

import numpy as np

from .result import MeasureResult, as_points, degenerate_result


OVERFLOW = "targets overflow the split scan's squared sums"


def _sums(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The sum of each segment values[starts[i] : starts[i] + counts[i]], bit for bit
    np.add.reduce's of that slice.

    The segments are gathered shortest first, so those of each length are
    the rows of one C-contiguous matrix, and numpy reduces each row of a
    matrix along its last axis as it reduces that row alone: a few calls
    per distinct length, whatever the number of segments.
    """
    order = np.argsort(counts, kind="stable")
    lengths = counts[order]
    ends = np.cumsum(lengths)
    at = ends - lengths  # where each segment begins in flat
    flat = values.take(np.repeat(starts[order] - at, lengths) + np.arange(lengths.sum()))
    ordered = np.empty(counts.size)
    firsts = np.flatnonzero(np.diff(lengths, prepend=-1)).tolist()  # each length's first segment
    for i, j in zip(firsts, firsts[1:] + [counts.size]):
        rows = flat[at[i] : ends[j - 1]].reshape(j - i, lengths[i])
        np.add.reduce(rows, axis=1, out=ordered[i:j])
    sums = np.empty(counts.size)
    sums[order] = ordered
    return sums


_GROUP_CELLS = 2048  # padded cells that cost about as much as one more call of each scan pass


def _groups(counts: np.ndarray, f: int) -> list[np.ndarray]:
    """Nodes to scan together, as positions in counts, each group padded to its largest count.

    Nodes go largest first, in classes of counts within a power of 2.  A
    class starts a group of its own when padding it and every node after it
    to the current width would cost more than _GROUP_CELLS cells per
    feature and pass.
    """
    if (counts.max() * counts.size - counts.sum()) * f <= _GROUP_CELLS:
        return [np.arange(counts.size)]
    order = np.argsort(-counts, kind="stable")
    c = counts[order]
    cuts, width = [0], c[0]
    for j in (np.flatnonzero(np.diff(np.frexp(c)[1])) + 1).tolist():
        if (width - c[j]) * (c.size - j) * f > _GROUP_CELLS:
            cuts.append(j)
            width = c[j]
    return [order[i:j] for i, j in zip(cuts, cuts[1:] + [c.size])]


def _scan(sv, sy, counts, total, total_sq, min_leaf: int) -> np.ndarray:
    """Each node's best split: its child SSE, feature and split point k.

    sv and sy are a group of nodes' feature values and targets in each
    feature's order, (nodes, F, m), padded past each node's count.  The
    child SSEs of every (feature, split point k) of every node form one
    array, out-of-range k and tied neighbours masked with inf; each node's
    row-major first minimum is the lowest feature index and then the lowest
    k among equal SSEs.
    """
    m = sv.shape[2]
    lo, hi = min_leaf, m - min_leaf  # split point k: rows [0, k) go left, for k in [lo, hi]
    k = np.arange(lo, hi + 1, dtype=np.float64)  # counts are exact floats: ints below 2**53
    rights = counts[:, None, None].astype(np.float64) - k  # rows right of each k
    with np.errstate(all="ignore"):  # past a node's rows; masked below
        csum = np.add.accumulate(sy, axis=2)[..., lo - 1 : hi]
        csq = np.add.accumulate(np.square(sy, out=sy), axis=2, out=sy)[..., lo - 1 : hi]
        sse = np.square(csum)  # sse = max(csq - csum**2 / k, 0) + max(right SSE, 0), in place
        sse /= k
        np.subtract(csq, sse, out=sse)
        rsum = np.subtract(total[:, None, None], csum, out=csum)
        np.square(rsum, out=rsum)
        rsum /= rights
        right_sse = np.subtract(total_sq[:, None, None], csq, out=csq)
        right_sse -= rsum
        np.maximum(sse, 0.0, out=sse)
        sse += np.maximum(right_sse, 0.0, out=right_sse)
    np.putmask(sse, (rights < min_leaf) | (sv[..., lo - 1 : hi] == sv[..., lo : hi + 1]), np.inf)
    sse = sse.reshape(counts.size, -1)
    best = sse.argmin(axis=1)
    node = np.arange(counts.size)
    feature, at = np.divmod(best, k.size)
    return np.stack([sse[node, best], feature, at + lo])


def _fit_stack(xt: np.ndarray, ys: np.ndarray, order: np.ndarray, max_depth: int, min_leaf: int):
    """Every anchor's tree, grown level by level, as the (A, n) in-sample fitted values.

    xt is (A, F, n), each anchor's feature columns; ys is (A, n), finite
    targets whose squared sums fit float64; order is xt's stable argsort
    along its last axis.  A node of at least 2 * min_leaf rows above
    max_depth takes the split with the lowest child SSE over every split
    point k in [min_leaf, rows - min_leaf] of every feature, tied
    neighbours excluded (_scan), when it strictly improves on the node's
    own SSE: its first k rows in the feature's order go left.  A row's
    fitted value is its leaf's targets' mean, their sum in ascending row
    order as np.add.reduce takes it (_sums).
    """
    a, f, n = xt.shape
    # The stack's rows are numbered anchor by anchor: row r of anchor i is i * n + r.
    y = ys.reshape(-1)
    xs = np.ascontiguousarray(xt.transpose(1, 0, 2)).reshape(-1)  # feature g of row j at g*a*n + j
    columns = (np.arange(f) * (a * n))[:, None]
    # One line per feature of every node's rows in that feature's order, node after node,
    # and a last line of them in ascending order: node i's rows are columns
    # starts[i] : starts[i] + counts[i] of every line.
    rows = np.concatenate([order, np.broadcast_to(np.arange(n), (a, 1, n))], axis=1)
    rows = (rows + (np.arange(a) * n)[:, None, None]).transpose(1, 0, 2).reshape(f + 1, -1)
    starts, counts = np.arange(a) * n, np.full(a, n)
    fitted = np.empty(a * n)
    for depth in range(max_depth + 1):
        size, width = counts.size, rows.shape[1]
        values = y.take(rows[-1])
        totals = _sums(
            np.concatenate([values, values * values]),
            np.concatenate([starts, starts + width]), np.concatenate([counts, counts]),
        )
        total, total_sq = totals[:size], totals[size:]
        # Each node's mean goes to its rows; a node that splits writes its children's next.
        fitted[rows[-1]] = np.repeat(total / counts, counts)
        live = np.flatnonzero(counts >= 2 * min_leaf)
        if depth == max_depth or not live.size:
            break
        found = np.empty((3, live.size))
        line_x, line_y = xs.take(rows[:f] + columns), y.take(rows[:f])  # each line's values
        lines = (np.arange(f) * width)[:, None]
        for group in _groups(counts[live], f):
            nodes = live[group]
            cells = starts[nodes][:, None, None] + lines + np.arange(counts[nodes].max())
            found[:, group] = _scan(  # past a node's count: padding
                line_x.take(cells, mode="clip"), line_y.take(cells, mode="clip"),
                counts[nodes], total[nodes], total_sq[nodes], min_leaf,
            )
        child_sse, feature, at = found
        p = np.flatnonzero(child_sse < total_sq[live] - total[live] * total[live] / counts[live])
        if not p.size:
            break
        s = live[p]
        feature, at = feature[p].astype(np.intp), at[p].astype(np.intp)

        # Each child's rows are a stable filter of its parent's, on every line: keyed 2j
        # (left) or 2j + 1 (right) from the j-th split node, or past every child in a
        # leaf, one stable sort of each line lays the children out one after another,
        # left then right, and the leaves' rows last, where the line is cut.
        goes_left = np.zeros(a * n, dtype=bool)  # the first at rows of the split feature's line
        taken = np.cumsum(at) - at
        left_cells = np.repeat(feature * width + starts[s] - taken, at)
        goes_left[rows.reshape(-1)[left_cells + np.arange(left_cells.size)]] = True
        if depth + 1 == max_depth:
            rows = rows[-1:]  # the children are leaves: they need their rows only
        key = np.full(size, 2 * s.size, dtype=np.min_scalar_type(2 * s.size))  # sorts fastest
        key[s] = 2 * np.arange(s.size) + 1
        moves = np.argsort(np.repeat(key, counts) - goes_left.take(rows), axis=1, kind="stable")
        counts = np.column_stack([at, counts[s] - at]).ravel()
        starts = np.cumsum(counts) - counts
        rows = np.take_along_axis(rows, moves[:, : counts.sum()], axis=1)
    return fitted.reshape(a, n)


def _squares_fit(ys: np.ndarray) -> np.ndarray:
    """Whether each row's squared sums fit float64: (sum |y|)**2 caps each one the scan forms."""
    with np.errstate(over="ignore"):
        bound = np.abs(ys).sum(axis=1)
        return np.isfinite(bound * bound)


def _median_mae(ys: np.ndarray) -> np.ndarray:
    """Each row's mean absolute error of always predicting its median (midpoint for even
    counts), for an (A, n) matrix; past float64 it is inf, and NaN or inf where a row is not
    finite, unwarned."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.mean(np.abs(ys - np.median(ys, axis=1, keepdims=True)), axis=1)


def pps(X, y, max_depth: int = 4, min_samples_leaf: int = 5) -> MeasureResult:
    """Predictive power score: 1 - MAE(tree)/MAE(median baseline), floored at 0.

    The tree is fitted and scored in sample on the same rows, so the score
    is deterministic and reads how well the features can describe the
    target, not how well they forecast unseen rows.  Non-finite input is
    refused before anything else; a constant target then makes the baseline
    MAE zero and the score degenerate.  max_depth 0 fits the mean; every
    leaf keeps at least min_samples_leaf rows.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    if min_samples_leaf < 1:
        raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
    xs = as_points(X)
    ys = np.asarray(y, dtype=np.float64)
    if ys.ndim != 1 or ys.shape[0] != xs.shape[0]:
        raise ValueError("y must be a vector matching X row count")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("inputs are not finite")
    xt = xs.T[None]
    order = np.argsort(xt, axis=2, kind="stable")
    mae, baseline, ((constant, reason), (overflow, _)) = _pps(
        xt, ys[None], order, max_depth, min_samples_leaf
    )
    params = {"max_depth": max_depth, "min_samples_leaf": min_samples_leaf}
    n = ys.shape[0]
    if constant[0]:
        return degenerate_result("PPS", n, reason, **params)
    if overflow[0]:
        raise ValueError(OVERFLOW)
    mae, base = float(mae[0]), float(baseline[0])
    raw = 1.0 - mae / base
    return MeasureResult(
        "PPS", min(max(raw, 0.0), 1.0), n,
        params={**params, "raw": raw, "mae_model": mae, "mae_baseline": base},
    )


def _pps(xt, ys, order, max_depth: int = 4, min_samples_leaf: int = 5):
    """Each anchor's MAE of its tree and of the median baseline, and the checks that flag
    anchors: a constant target, then targets whose squared sums overflow (one of the two
    flags every target that is not finite).

    xt, ys and order are as _fit_stack takes them.  Every anchor is measured,
    and the trees of every anchor no check flags grow together; the tree MAE
    is NaN where none grew.  Nothing warns.
    """
    a, n = ys.shape
    if n == 0:
        raise ValueError("y must be a non-empty vector")
    baseline = _median_mae(ys)
    constant = (baseline == 0.0) | (ys.min(axis=1) == ys.max(axis=1))
    overflow = ~_squares_fit(ys)
    grown = np.flatnonzero(~(constant | overflow))
    mae = np.full(a, np.nan)
    fitted = _fit_stack(xt[grown], ys[grown], order[grown], max_depth, min_samples_leaf)
    mae[grown] = np.mean(np.abs(ys[grown] - fitted), axis=1)
    return mae, baseline, [(constant, "constant target"), (overflow, OVERFLOW)]


# Window entries in one stack of PPS trees: the (feature set, target) pairs of a block whose
# feature sets have as many columns grow together, at most this many target cells at a time.
_STACK_CELLS = 8_192


def _ppss(sets: list, ys: list):
    """PPS of every (feature set, target) pair of an anchor block, and the (mask, reason)
    checks that flag it: an (A, S, T) value array, NaN where a check does.

    sets are the block's feature sets, each a tuple of _Column, and ys its targets, each a
    _Column.  The trees of the pairs whose sets have as many columns grow in stacks of at
    most _STACK_CELLS window cells (_pps), pairs in (feature set, target) order.
    """
    a = len(ys[0].values)
    values = np.full((a, len(sets), len(ys)), np.nan)
    flags: dict[str, np.ndarray] = {}
    size = max(1, _STACK_CELLS // max(1, ys[0].values.size))
    for width in dict.fromkeys(map(len, sets)):
        pairs = [(i, j) for i, x in enumerate(sets) if len(x) == width for j in range(len(ys))]
        for start in range(0, len(pairs), size):
            i, j = np.array(pairs[start : start + size]).T
            mae, baseline, checks = _pps(
                np.concatenate([np.stack([c.values for c in sets[k]], axis=1) for k in i]),
                np.concatenate([ys[k].values for k in j]),
                np.concatenate([np.stack([c.order for c in sets[k]], axis=1) for k in i]),
            )
            values[:, i, j] = np.clip(1.0 - mae / baseline, 0.0, 1.0).reshape(-1, a).T
            for mask, reason in checks:
                flags.setdefault(reason, np.zeros(values.shape, dtype=bool))[:, i, j] = (
                    mask.reshape(-1, a).T
                )
    return values, [(mask, reason) for reason, mask in flags.items()]
