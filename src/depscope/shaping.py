"""Sliding-window shaping: cut a frame into past-feature / future-target samples.

Each sample anchors at a row t and carries the W most recent feature rows
(oldest first) plus the H target values strictly after t, so feature and
target rows can never overlap.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .frame import TimeSeriesFrame


@dataclass(frozen=True)
class WindowSample:
    """One anchored sample: x_block rows cover [anchor-W+1, anchor], y_horizon covers [anchor+1, anchor+H]."""

    anchor: int
    anchor_time: np.datetime64
    x_block: np.ndarray  # (W, F), oldest row first
    y_horizon: np.ndarray  # (H,)

    @property
    def horizon(self) -> int:
        return int(self.y_horizon.shape[0])


def window_count(length: int, window: int, step: int, horizon: int) -> int:
    """Number of samples a frame of the given length yields: floor((T-W-H)/N)+1, or 0 when too short."""
    if length < window + horizon:
        return 0
    return (length - window - horizon) // step + 1


def anchor_grid(length: int, window: int, step: int, horizon: int) -> np.ndarray:
    """Anchor rows of the window grid, oldest first: W-1, W-1+N, ... for every full sample."""
    if window < 1 or step < 1 or horizon < 1:
        raise ValueError("window_width, step and horizon must all be >= 1")
    count = window_count(length, window, step, horizon)
    return window - 1 + step * np.arange(count, dtype=np.int64)


@dataclass(frozen=True)
class ShapedDataset:
    """Ordered window samples over fixed feature columns and one target column."""

    frame: TimeSeriesFrame = field(repr=False)
    feature_columns: tuple[str, ...]
    target_column: str
    window_width: int
    step: int
    horizon: int

    @property
    def format(self) -> str:
        """X:Y for a single feature column, S:Y for a feature set."""
        return "X:Y" if len(self.feature_columns) == 1 else "S:Y"

    @cached_property
    def anchors(self) -> np.ndarray:
        return anchor_grid(len(self.frame), self.window_width, self.step, self.horizon)

    @cached_property
    def samples(self) -> tuple[WindowSample, ...]:
        w, h = self.window_width, self.horizon
        feats = np.column_stack([self.frame.column(c) for c in self.feature_columns])
        target = self.frame.column(self.target_column)
        ts = self.frame.timestamps
        return tuple(
            WindowSample(
                anchor=int(a),
                anchor_time=ts[a],
                x_block=feats[a - w + 1 : a + 1],
                y_horizon=target[a + 1 : a + 1 + h],
            )
            for a in self.anchors
        )

    def __len__(self) -> int:
        return int(self.anchors.shape[0])


def make_sliding_windows(
    frame: TimeSeriesFrame,
    feature_columns,
    target_column: str,
    window_width: int,
    step: int,
    horizon: int,
) -> ShapedDataset:
    """Shape a frame into anchored window samples on a fixed anchor grid.

    Anchors start at row W-1 and advance by the step; a sample exists only
    when its full horizon fits inside the frame, which gives exactly
    floor((T-W-H)/N)+1 samples for T >= W+H and none otherwise.
    """
    feature_columns = tuple(feature_columns)
    if not feature_columns:
        raise ValueError("feature_columns must name at least one column")
    anchor_grid(len(frame), window_width, step, horizon)  # raises on a grid parameter below 1
    for name in feature_columns + (target_column,):
        frame.column(name)  # raises KeyError on unknown names
    return ShapedDataset(
        frame=frame,
        feature_columns=feature_columns,
        target_column=target_column,
        window_width=window_width,
        step=step,
        horizon=horizon,
    )


def pair_arrays(sample: WindowSample) -> tuple[np.ndarray, np.ndarray]:
    """Array form of pair_samples: xs is (W, F) and ys is (W,)."""
    xs = sample.x_block
    return xs, pair_targets(sample.y_horizon, xs.shape[0])


def pair_targets(y_horizon: np.ndarray, window: int) -> np.ndarray:
    """The target paired with each of a window's W feature rows, oldest first."""
    # offset j pairs with horizon offset j; the modulo keeps the map total
    # when W != H, and reduces to exact same-offset alignment when H == W.
    return y_horizon[np.arange(window) % y_horizon.shape[0]]


def pair_samples(sample: WindowSample) -> list[tuple]:
    """Turn one window sample into W (x, y) pairs.

    The feature tuple at each lag offset pairs with the target at the
    matching offset of the forward horizon.
    """
    xs, ys = pair_arrays(sample)
    return [(tuple(map(float, x)), float(y)) for x, y in zip(xs, ys)]


TOO_MANY_BINS = "values span more bins than int64 symbols can index"


def _fixed_width_codes(values: np.ndarray, bin_width: float) -> tuple[np.ndarray, np.ndarray]:
    """discretize's symbols of each row of (A, n) values, and the rows it refuses.

    A row is refused when a value is more than 2**63 bins from zero, or is
    not finite; its symbols come back 0 instead of wrapping around int64.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        # Rounded division is monotone, so max |v| / w is the largest |v / w|.
        refused = ~(np.abs(values).max(axis=1, initial=0.0) / bin_width < 2.0**63)
        bins = np.floor(values / bin_width)
    bins[refused] = 0.0
    return bins.astype(np.int64), refused


def discretize(values, bin_width: float) -> np.ndarray:
    """Map reals onto half-open fixed-width bins anchored at zero: symbol k covers [k*w, (k+1)*w).

    The symbols come back as a read-only int64 vector.  Values more than
    2**63 bins from zero are refused instead of wrapping around int64.
    """
    if not (bin_width > 0.0):
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    symbols, refused = _fixed_width_codes(v[None, :], bin_width)
    if refused[0]:
        raise ValueError(TOO_MANY_BINS)
    symbols = symbols[0]
    symbols.flags.writeable = False
    return symbols
