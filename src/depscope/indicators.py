"""Technical indicator columns derived from OHLCV frames.

Warm-up entries that have no defined value are NaN; build_feature_matrix is
the single place that trims them away.  Target-role columns are the same
quantities shifted forward so the value stored at row t describes what
happens after t.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .frame import TimeSeriesFrame


class _Kind(NamedTuple):
    """One indicator kind: its column name after the role prefix, how it is computed, and
    whether it can be a target (its values pulled forward by its period)."""

    name: str  # {period} stands for the spec's period
    compute: Callable[[TimeSeriesFrame, int], np.ndarray]  # (frame, period) -> column
    target: bool = False


_KINDS = {
    "ret": _Kind("ret_c_{period}", lambda f, p: returns(f.column("close"), p), target=True),
    "vol_pct": _Kind("vol_pct", lambda f, p: returns(f.column("volume"), p), target=True),
    "ret_hma": _Kind(
        "ret_c_hma_{period}", lambda f, p: hma(returns(f.column("close"), 1), p), target=True
    ),
    "macd": _Kind("c_macd", lambda f, p: macd(f.column("close"))[0]),
    "macd_signal": _Kind("c_macd_signal", lambda f, p: macd(f.column("close"))[1]),
    "obv": _Kind("obv", lambda f, p: obv(f.column("close"), f.column("volume"))),
    "atr": _Kind("atr", lambda f, p: atr(f.column("high"), f.column("low"), f.column("close"), p)),
    "rsi": _Kind("rsi", lambda f, p: rsi_indicator(f.column("close"), p)),
}
INDICATOR_KINDS = tuple(_KINDS)


def wma(series, n: int) -> np.ndarray:
    """Linearly weighted moving average; weight i of n on the i-th oldest window entry.

    The first n-1 outputs are NaN.  Weights are applied as integers and
    divided once by n(n+1)/2, so exactly representable constants are
    reproduced bit for bit.
    """
    if n < 1:
        raise ValueError(f"window must be >= 1, got {n}")
    s = np.asarray(series, dtype=np.float64)
    out = np.full(s.shape[0], np.nan)
    if n > s.shape[0]:
        return out
    weights = np.arange(1, n + 1, dtype=np.float64)
    out[n - 1 :] = sliding_window_view(s, n) @ weights / (n * (n + 1) / 2)
    return out


def hma(series, n: int) -> np.ndarray:
    """Hull moving average: wma(2*wma(n//2) - wma(n), round(sqrt(n))); needs n >= 4."""
    if n < 4:
        raise ValueError(f"hull window must be >= 4, got {n}")
    s = np.asarray(series, dtype=np.float64)
    raw = 2.0 * wma(s, n // 2) - wma(s, n)
    return wma(raw, int(round(math.sqrt(n))))


def ema(series, n: int) -> np.ndarray:
    """Exponential moving average, alpha = 2/(n+1), seeded with the first value.

    The update is written as prev + alpha*(x - prev) so a constant input is
    reproduced exactly.
    """
    if n < 1:
        raise ValueError(f"window must be >= 1, got {n}")
    s = np.asarray(series, dtype=np.float64)
    out = np.empty_like(s)
    if s.shape[0] == 0:
        return out
    alpha = 2.0 / (n + 1.0)
    acc = s[0]
    out[0] = acc
    for t in range(1, s.shape[0]):
        acc = acc + alpha * (s[t] - acc)
        out[t] = acc
    return out


def returns(series, d: int = 1) -> np.ndarray:
    """d-period simple returns series[t]/series[t-d] - 1; the first d outputs are NaN."""
    if d < 1:
        raise ValueError(f"duration must be >= 1, got {d}")
    s = np.asarray(series, dtype=np.float64)
    if np.any(s <= 0.0):
        raise ValueError("returns need a strictly positive series")
    out = np.full(s.shape[0], np.nan)
    if d < s.shape[0]:
        out[d:] = s[d:] / s[:-d] - 1.0
    return out


def macd(close) -> tuple[np.ndarray, np.ndarray]:
    """MACD line (12-EMA minus 26-EMA of close) and its 9-EMA signal line.

    Inputs shorter than 26 rows give all-NaN outputs.
    """
    c = np.asarray(close, dtype=np.float64)
    if c.shape[0] < 26:
        nan = np.full(c.shape[0], np.nan)
        return nan, nan.copy()
    line = ema(c, 12) - ema(c, 26)
    return line, ema(line, 9)


def obv(close, volume) -> np.ndarray:
    """On-balance volume: cumulative volume signed by the close-to-close move, starting at 0."""
    c = np.asarray(close, dtype=np.float64)
    v = np.asarray(volume, dtype=np.float64)
    if c.shape != v.shape:
        raise ValueError(f"close and volume lengths differ: {c.shape[0]} vs {v.shape[0]}")
    if np.any(v < 0.0):
        raise ValueError("volume must be non-negative")
    out = np.zeros(c.shape[0])
    if c.shape[0]:
        out[1:] = np.cumsum(np.sign(np.diff(c)) * v[1:])
    return out


def atr(high, low, close, n: int = 14) -> np.ndarray:
    """Average true range with Wilder smoothing, seeded with the mean of the first n true ranges.

    The true range at row 0 falls back to high-low because there is no prior
    close.  Outputs before row n-1 are NaN.
    """
    h = np.asarray(high, dtype=np.float64)
    l = np.asarray(low, dtype=np.float64)
    c = np.asarray(close, dtype=np.float64)
    if not (h.shape == l.shape == c.shape):
        raise ValueError("high, low and close must have equal length")
    if np.any(h < l):
        raise ValueError("high must be >= low on every row")
    if n < 1:
        raise ValueError(f"window must be >= 1, got {n}")
    t = h.shape[0]
    out = np.full(t, np.nan)
    if t < n:
        return out
    tr = h - l
    if t > 1:
        prev_close = c[:-1]
        tr = tr.copy()
        tr[1:] = np.maximum.reduce(
            [h[1:] - l[1:], np.abs(h[1:] - prev_close), np.abs(l[1:] - prev_close)]
        )
    acc = tr[:n].mean()
    out[n - 1] = acc
    for i in range(n, t):
        acc = acc + (tr[i] - acc) / n
        out[i] = acc
    return out


def rsi_indicator(close, n: int = 14) -> np.ndarray:
    """Relative strength index with Wilder smoothing over n periods.

    Defined from row n onward; an all-loss window reads 0, an all-gain window
    100, and a flat window 50.  Inputs of length <= n give all-NaN output.
    """
    c = np.asarray(close, dtype=np.float64)
    if n < 1:
        raise ValueError(f"window must be >= 1, got {n}")
    t = c.shape[0]
    out = np.full(t, np.nan)
    if t <= n:
        return out
    delta = np.diff(c)
    gains = np.maximum(delta, 0.0)
    losses = np.maximum(-delta, 0.0)
    avg_gain = gains[:n].mean()
    avg_loss = losses[:n].mean()
    out[n] = _rsi_value(avg_gain, avg_loss)
    for i in range(n, t - 1):
        avg_gain = avg_gain + (gains[i] - avg_gain) / n
        avg_loss = avg_loss + (losses[i] - avg_loss) / n
        out[i + 1] = _rsi_value(avg_gain, avg_loss)
    return out


def _rsi_value(avg_gain: float, avg_loss: float) -> float:
    if avg_loss == 0.0:
        if avg_gain == 0.0:
            return 50.0
        return 100.0
    return 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)


@dataclass(frozen=True)
class IndicatorSpec:
    """One derived column: an indicator kind, its period, and a feature or target role."""

    kind: str
    period: int = 1
    role: str = "feature"

    def __post_init__(self):
        if self.kind not in INDICATOR_KINDS:
            raise ValueError(f"unknown indicator kind {self.kind!r}")
        if self.role not in ("feature", "target"):
            raise ValueError(f"role must be 'feature' or 'target', got {self.role!r}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if self.role == "target" and not _KINDS[self.kind].target:
            raise ValueError(f"kind {self.kind!r} does not support the target role")

    @property
    def column_name(self) -> str:
        prefix = "f" if self.role == "feature" else "t"
        return f"{prefix}_{_KINDS[self.kind].name.format(period=self.period)}"


def standard_indicator_specs() -> list[IndicatorSpec]:
    """The stock feature/target set: returns at several horizons, volume change, trend and momentum gauges."""
    return [
        IndicatorSpec("ret", 1, "feature"),
        IndicatorSpec("vol_pct", 1, "feature"),
        IndicatorSpec("ret_hma", 5, "feature"),
        IndicatorSpec("ret_hma", 20, "feature"),
        IndicatorSpec("macd", 1, "feature"),
        IndicatorSpec("macd_signal", 1, "feature"),
        IndicatorSpec("obv", 1, "feature"),
        IndicatorSpec("atr", 14, "feature"),
        IndicatorSpec("rsi", 14, "feature"),
        IndicatorSpec("ret", 1, "target"),
        IndicatorSpec("ret_hma", 5, "target"),
        IndicatorSpec("ret_hma", 20, "target"),
    ]


def _forward_shift(values: np.ndarray, by: int) -> np.ndarray:
    """Pull values from `by` rows ahead; the final `by` rows become NaN."""
    out = np.full(values.shape[0], np.nan)
    if by < values.shape[0]:
        out[: values.shape[0] - by] = values[by:]
    return out


def _compute_column(frame: TimeSeriesFrame, spec: IndicatorSpec) -> np.ndarray:
    base = _KINDS[spec.kind].compute(frame, spec.period)
    return _forward_shift(base, spec.period) if spec.role == "target" else base


def build_feature_matrix(frame: TimeSeriesFrame, specs) -> TimeSeriesFrame:
    """Append derived columns and trim the rows where any of them is undefined.

    Warm-ups leave NaN at the head and forward-shifted targets leave NaN at
    the tail; both margins are removed so the result has no non-finite
    values.  Duplicate output names are rejected.
    """
    specs = list(specs)
    if not specs:
        return frame
    names = [spec.column_name for spec in specs]
    taken = set(frame.column_names)
    for name in names:
        if name in taken:
            raise ValueError(f"duplicate column name {name!r}")
        taken.add(name)

    derived = {name: _compute_column(frame, spec) for name, spec in zip(names, specs)}
    defined = np.ones(len(frame), dtype=bool)
    for col in derived.values():
        defined &= np.isfinite(col)
    if not defined.any():
        raise ValueError("no rows remain after trimming undefined indicator values")
    start = int(np.argmax(defined))
    stop = len(frame) - int(np.argmax(defined[::-1]))
    if not defined[start:stop].all():
        raise ValueError("derived columns have undefined values away from the margins")

    columns = {name: frame.columns[name][start:stop] for name in frame.column_names}
    columns.update({name: derived[name][start:stop] for name in names})
    return TimeSeriesFrame(
        timestamps=frame.timestamps[start:stop], columns=columns, source=frame.source
    )
