"""Exhaustive hyperparameter search over windows, feature sets, targets and measures.

Every (window, feature set, target, measure) configuration is evaluated at
every anchor on the step grid; one anchor evaluation is one trial.  Trials
that cannot be scored (too few pairs, incompatible arity, constant input)
are logged as degenerate records instead of being dropped.

One column-major scan scores them (scan_window): window, then a block of
anchors, then column and measure.  Each block cuts every column's windows
into one (anchors, W) matrix and sorts each row once, by a stable argsort.
One block scorer (_Block) scores every trial of a block, and
evaluate_pairs is a one-anchor block: it flags each anchor with the first
reason that holds, in one order for every measure, scores MI, IG,
RSI_SYNERGY and MIC at every anchor of the block at once through the
integer-code kernel, and leaves PC, SC, DC and PPS to one anchor at a time
from the matrices' rows.  What the measures derive from a window (codes,
entropies, ranks, centred distances) is made once and read by every trial
that uses it.
"""
from __future__ import annotations

import csv
import io
import json
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from functools import cached_property
from itertools import product
from pathlib import Path

import numpy as np

from .frame import TimeSeriesFrame, _emit
from .measures import MeasureResult, degenerate_result, pearson, spearman
from .measures.information import (
    TOO_WIDE,
    _check_set_size,
    _Codes,
    _dense,
    _feature_codes,
    _information_gain,
    _joint,
    _mic,
    _mic_result,
    _mic_side,
    _MicSide,
    _mutual_information,
    _synergy,
)
from .measures.model_based import _pps
from .measures.result import Measure, as_points, measure_row
from .measures.statistical import (
    _average_ranks,
    _centered_distances,
    _distance_correlation,
    _spearman,
)
from .shaping import TOO_MANY_BINS, _fixed_width_codes, anchor_grid, pair_targets

# Unused here; perfbench/layers.py looks these names up in this module to trace a run.
from .measures import equal_frequency_symbols  # noqa: F401
from .shaping import discretize, pair_arrays  # noqa: F401

log = logging.getLogger(__name__)

TREND_LABELS = ("DOWN", "NEUTRAL", "UP")
TREND_LOOKBACK = 20  # rows back from the anchor that the trend return spans
TREND_THRESHOLD = 0.02  # a trend return above this is UP, below its negative DOWN


def check_binning(
    bin_width: float, feature_bins: int, *, width: str = "bin_width", bins: str = "feature_bins"
) -> None:
    """Refuse binning settings on every path that scores: search, scans, evaluate_pairs and the CLI.

    width and bins are what the message calls the two settings: a Python
    field by default, a flag with its unit and value on the command line.
    """
    if not (bin_width > 0.0):
        raise ValueError(f"{width} must be positive")
    if not (2 <= feature_bins <= 16):
        raise ValueError(f"{bins} must be between 2 and 16")


# Characters the trial log or config_key joins names with, which no name may contain.
_FEATURE_JOINS = {
    "|": "the trial log joins a feature set's names with",
    "+": "config_key joins a feature set's names with",
}
_TARGET_JOINS = {"|": "config_key separates its fields with"}


@dataclass(frozen=True)
class SearchSpace:
    """Axes and shared shaping parameters of one grid search."""

    window_sizes: tuple[int, ...]
    feature_sets: tuple[tuple[str, ...], ...]
    targets: tuple[str, ...]
    measures: tuple[str, ...]
    horizon: int | None = None  # None keeps the horizon equal to each window size
    step: int = 100
    bin_width: float = 0.001
    feature_bins: int = 8
    min_samples: int = 100

    def __post_init__(self):
        object.__setattr__(self, "window_sizes", tuple(int(w) for w in self.window_sizes))
        object.__setattr__(
            self, "feature_sets", tuple(tuple(fs) for fs in self.feature_sets)
        )
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "measures", tuple(self.measures))
        if not (self.window_sizes and self.feature_sets and self.targets and self.measures):
            raise ValueError("every search axis needs at least one value")
        if any(w < 8 for w in self.window_sizes):
            raise ValueError("window sizes must be >= 8")
        if any(not fs for fs in self.feature_sets):
            raise ValueError("feature sets must be non-empty")
        names = [("feature", n, _FEATURE_JOINS) for fs in self.feature_sets for n in fs]
        names += [("target", t, _TARGET_JOINS) for t in self.targets]
        for kind, name, joins in names:
            for char, use in joins.items():
                if char in name:
                    raise ValueError(f"{kind} name {name!r} contains {char!r}, which {use}")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must be >= 1 when given")
        if self.step < 1:
            raise ValueError("step must be >= 1")
        for m in self.measures:
            measure_row(m)  # an unknown id raises
        check_binning(self.bin_width, self.feature_bins)
        if self.min_samples < 2:
            raise ValueError("min_samples must be >= 2")


STANDARD_FEATURES = (
    "f_ret_c_1",
    "f_vol_pct",
    "f_ret_c_hma_5",
    "f_ret_c_hma_20",
    "f_c_macd",
    "f_c_macd_signal",
    "f_obv",
    "f_atr",
    "f_rsi",
)

STANDARD_TARGETS = ("t_ret_c_1", "t_ret_c_hma_5", "t_ret_c_hma_20")


def default_search_space() -> SearchSpace:
    """Stock space: windows 50..200, step 100, 10 bp target bins, single-feature sets."""
    return SearchSpace(
        window_sizes=(50, 100, 150, 200),
        feature_sets=tuple((name,) for name in STANDARD_FEATURES),
        targets=STANDARD_TARGETS,
        measures=("MI", "DC", "MIC"),
    )


@dataclass(frozen=True)
class TrialRecord:
    """One trial; its fields, in order, are the trial-log columns."""

    trial_id: int
    window_size: int
    features: tuple[str, ...]
    target: str
    measure: str
    anchor_date: str
    trend: str
    objective: float
    degenerate: bool


TRIAL_CSV_HEADER = tuple(f.name for f in fields(TrialRecord))
GROUP_AXES = ("window_size", "features", "target", "measure")

# CSV text of the fields that are not written with str(), and the parsers back.
_FORMATTERS = {
    "features": "|".join,
    "objective": lambda v: repr(float(v)),
    "degenerate": lambda v: "true" if v else "false",
}
_PARSERS = {
    "trial_id": int,
    "window_size": int,
    "features": lambda text: tuple(text.split("|")),
    "objective": float,
    "degenerate": lambda text: text == "true",
}


def _cell(record: TrialRecord, name: str) -> str:
    """One field of a trial as it appears in the CSV artifacts and in rankings."""
    return _FORMATTERS.get(name, str)(getattr(record, name))


@dataclass(frozen=True)
class TrialLog:
    records: tuple[TrialRecord, ...]
    space: SearchSpace | None
    seed: int
    created_utc: str = ""
    elapsed_s: float = 0.0


def label_trend(close, anchor: int) -> str:
    """Label the TREND_LOOKBACK-row return up to an anchor as UP, DOWN or NEUTRAL.

    Anchors with fewer than TREND_LOOKBACK prior rows cannot be labeled;
    they come back NEUTRAL and a warning is logged.
    """
    c = np.asarray(close, dtype=np.float64)
    if not (0 <= anchor < c.shape[0]):
        raise ValueError(f"anchor {anchor} outside series of length {c.shape[0]}")
    if anchor < TREND_LOOKBACK:
        log.warning(
            "anchor %d has fewer than %d prior rows; labeling NEUTRAL", anchor, TREND_LOOKBACK
        )
        return "NEUTRAL"
    r = c[anchor] / c[anchor - TREND_LOOKBACK] - 1.0
    if r > TREND_THRESHOLD:
        return "UP"
    if r < -TREND_THRESHOLD:
        return "DOWN"
    return "NEUTRAL"


_BLOCK_MEASURES = frozenset({"MI", "IG", "RSI_SYNERGY", "MIC"})  # scored a block of anchors at once
# Window entries per column in one anchor block: a block holds max(1, _BLOCK_CELLS // W)
# anchors, so no temporary grows with the number of anchors of a scan.
_BLOCK_CELLS = 2048


class _Column:
    """One column's windows in one anchor block, an (A, W) matrix with one anchor per row,
    and its sort, each made once.

    Every window is sorted once, by a stable argsort: SC's ranks and the PPS
    tree's presort read the order, and the equal-frequency codes of every
    bin count read the sorted values gathered through it.
    """

    def __init__(self, values: np.ndarray):
        self.values = values
        self.finite = np.isfinite(values).all(axis=1)

    @cached_property
    def order(self) -> np.ndarray:
        """The stable ascending argsort of each row."""
        return np.argsort(self.values, axis=1, kind="stable")

    @cached_property
    def ordered(self) -> np.ndarray:
        """Each row ascending."""
        return np.take_along_axis(self.values, self.order, axis=1)


class _Side:
    """A feature set or a target at one anchor of a block, and what PC, SC, DC and PPS derive
    from it, each made once.

    A side keeps its centred distance matrix for as long as the scan keeps the
    side: a target for one anchor, a feature set for one (anchor, feature set).
    A derivation that raises is not kept: each trial that reads it raises again.
    """

    def __init__(self, columns: tuple[_Column, ...], row: int):
        self.columns = columns
        self.row = row
        self.values = columns[0].values[row]
        self.n = self.values.shape[0]

    @cached_property
    def points(self) -> np.ndarray:
        """The window as an (n, F) matrix of row points."""
        return np.column_stack([c.values[self.row] for c in self.columns])

    @cached_property
    def orders(self) -> np.ndarray:
        """The columns' sort orders stacked by row, the PPS tree's presort."""
        return np.stack([c.order[self.row] for c in self.columns])

    @cached_property
    def ranks(self) -> np.ndarray:
        return _average_ranks(self.values, self.columns[0].order[self.row])

    @cached_property
    def centered_distances(self) -> tuple[np.ndarray, float]:
        return _centered_distances(self.points)


def _score(m: Measure, x: _Side, y: _Side) -> MeasureResult:
    """Score PC, SC, DC or PPS (table row m) at one anchor on feature side x and target side y.

    A ValueError inside a measure, including a value outside its range,
    comes back flagged with its message as reason.
    """
    try:
        if m.id == "PC":
            return pearson(x.values, y.values)
        if m.id == "SC":
            return _spearman(x.ranks, y.ranks)
        if m.id == "DC":
            return _distance_correlation(
                x.points, x.centered_distances, y.points, y.centered_distances
            )
        return _pps(x.points, y.values, x.orders)
    except ValueError as exc:
        return degenerate_result(m.id, x.n, str(exc))


@dataclass
class _Block:
    """Every (feature set, target, measure) trial of one anchor block.

    Each trial flags every anchor with the first reason that holds for it,
    in one order for every measure: non-finite input, a pairwise measure on
    a set, sides of unequal length, then the measure's own refusals.  MI,
    IG, RSI_SYNERGY and MIC score every anchor of the block at once; PC, SC,
    DC and PPS score one anchor at a time (_score), row by row, so that a
    side's centred distances live for one anchor only.  What the block's
    trials share is kept until the block is dropped: each column's codes,
    each feature set's codes, and each (feature set, target)'s MI, which
    RSI_SYNERGY of every set holding the feature reads again.  A derivation
    that raises is not kept.
    """

    anchors: int  # rows of every column's matrix
    sets: list[tuple[_Column, ...]]  # each feature set's columns
    ys: list[_Column]  # the targets
    feature_bins: int
    bin_width: float
    _kept: dict = field(default_factory=dict, init=False)

    def _keep(self, key: tuple, make):
        if key not in self._kept:
            self._kept[key] = make()
        return self._kept[key]

    def _features(self, c: _Column) -> tuple[_Codes, np.ndarray]:
        """The codes MI, IG and RSI_SYNERGY count for a feature, and the rows too wide to bin."""
        return self._keep(
            ("features", c), lambda: _feature_codes(c.values, c.ordered, self.feature_bins)
        )

    def _targets(self, c: _Column) -> tuple[_Codes, np.ndarray]:
        """The codes they count for a target, fixed-width bins of bin_width, and the rows refused."""

        def make():
            codes, refused = _fixed_width_codes(c.values, self.bin_width)
            return _Codes(*_dense(codes)), refused

        return self._keep(("targets", c), make)

    def _mic(self, c: _Column) -> _MicSide:
        return self._keep(("mic", c), lambda: _mic_side(c.values, c.ordered))

    def _codes(self, x: tuple[_Column, ...]) -> _Codes:
        return self._keep(("set", x), lambda: _joint([self._features(c)[0] for c in x]))

    def _mutual_information(self, x: tuple[_Column, ...], y: _Column) -> np.ndarray:
        return self._keep(
            ("mi", x, y), lambda: _mutual_information(self._codes(x), self._targets(y)[0])
        )

    def _information(self, m: Measure, x: tuple[_Column, ...], y: _Column, checks: list):
        """Score MI, IG, RSI_SYNERGY or MIC at every anchor; add its refusals to checks.

        Returns the record of an anchor by index.
        """
        n = y.values.shape[1]
        if m.id == "MIC":
            sx, sy = self._mic(x[0]), self._mic(y)
            checks += [(sx.wide, TOO_WIDE), (sy.wide, TOO_WIDE)]
            values, best = _mic(sx, sy)
            return lambda i: _mic_result(float(values[i]), int(best[i]), n)
        if n == 0:
            raise ValueError("empty symbol sequences")
        target, refused = self._targets(y)
        checks.append((refused, TOO_MANY_BINS))
        params = {}
        if m.id == "RSI_SYNERGY":
            _check_set_size(len(x))
            params = {"set_size": len(x)}
        checks += [(self._features(c)[1], TOO_WIDE) for c in x]
        if m.id == "MI":
            values = self._mutual_information(x, y)
        elif m.id == "IG":  # the features assign the split branches
            values = _information_gain(target, self._codes(x))
        else:
            singles = [self._mutual_information((c,), y) for c in x]
            values = _synergy(self._mutual_information(x, y), singles)
        return lambda i: MeasureResult(m.id, float(values[i]), n, params=dict(params))

    def _trial(self, m: Measure, x: tuple[_Column, ...], y: _Column) -> list[MeasureResult | None]:
        """Measure row m on feature set x and target y at every anchor; None where _score scores it."""
        a, n = x[0].values.shape
        every = np.ones(a, dtype=bool)
        finite = np.logical_and.reduce([c.finite for c in x + (y,)])
        checks = [(~finite, "non-finite input")]
        record = None
        if m.pairwise and len(x) > 1:
            checks.append((every, "pairwise measure on multivariate input"))
        elif y.values.shape[1] != n:
            checks.append((every, f"length mismatch: {n} vs {y.values.shape[1]}"))
        elif m.id in _BLOCK_MEASURES:
            try:
                record = self._information(m, x, y, checks)
            except ValueError as exc:
                checks.append((every, str(exc)))
        results: list[MeasureResult | None] = [None] * a
        for mask, reason in checks:
            for i in np.flatnonzero(mask).tolist():
                if results[i] is None:
                    results[i] = degenerate_result(m.id, n, reason)
        if record is not None:
            for i, result in enumerate(results):
                if result is None:
                    try:
                        results[i] = record(i)
                    except ValueError as exc:
                        results[i] = degenerate_result(m.id, n, str(exc))
        return results

    def scores(self, measure_rows: list[Measure]) -> list[list[MeasureResult]]:
        """Each anchor's results in (feature set, target, measure) order."""
        trials = [[self._trial(m, x, y) for y in self.ys for m in measure_rows] for x in self.sets]
        scores = []
        for row in range(self.anchors):
            y_sides = [_Side((y,), row) for y in self.ys]
            results = []
            for x, by_set in zip(self.sets, trials):
                x_side = _Side(x, row)
                for (y, m), trial in zip(product(y_sides, measure_rows), by_set):
                    result = trial[row]
                    results.append(_score(m, x_side, y) if result is None else result)
            scores.append(results)
        return scores


def evaluate_pairs(
    measure: str,
    xs: np.ndarray,
    ys: np.ndarray,
    *,
    bin_width: float = 0.001,
    feature_bins: int = 8,
) -> MeasureResult:
    """Score one measure on paired windows, binning as each measure requires.

    xs is (n, F) or (n,); ys is the (n,) target vector, and any other
    shape raises ValueError.  Non-finite input and pairwise-only measures on
    multivariate input are degenerate-flagged up front; numeric
    degeneracies inside a measure, including synergy sets above its
    capacity limit, come back flagged as well.  The pair is scored as a
    one-anchor block of the scan.
    """
    m = measure_row(measure)
    check_binning(bin_width, feature_bins)
    xs = as_points(xs)
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 1:
        raise ValueError(f"ys must be a vector of targets, got shape {ys.shape}")
    x = tuple(_Column(column[None, :]) for column in xs.T)
    return _Block(1, [x], [_Column(ys[None, :])], feature_bins, bin_width).scores([m])[0][0]


def scan_window(
    frame: TimeSeriesFrame,
    window: int,
    feature_sets,
    targets,
    measures,
    *,
    step: int,
    horizon: int,
    bin_width: float,
    feature_bins: int,
    min_samples: int = 1,
    block: slice = slice(None),
) -> tuple[np.ndarray, list[list[MeasureResult]]]:
    """Score every (feature set, target, measure) at every anchor of one window grid.

    Returns the anchors, oldest first (only those in block), and for each
    anchor its results in (feature set, target, measure) order.  This is the
    one anchor loop behind the grid search, verification and windowed
    measurement.  It walks the anchors in blocks: each block cuts every
    column's windows into one matrix, MI, IG, RSI_SYNERGY and MIC score
    every anchor of the block at once, and PC, SC, DC and PPS score one
    anchor at a time from rows of the same matrices.  Targets keep their
    per-anchor data for the anchor, feature sets for their own trials only.
    Windows with fewer than min_samples pairs come back degenerate without
    being scored.
    """
    check_binning(bin_width, feature_bins)
    measure_rows = [measure_row(m) for m in measures]
    anchors = anchor_grid(len(frame), window, step, horizon)[block]
    trials_per_measure = len(feature_sets) * len(targets)
    if window < min_samples:
        flagged = [degenerate_result(m, window, f"fewer than {min_samples} pairs") for m in measures]
        return anchors, [flagged * trials_per_measure for _ in anchors]
    feature_columns = {name: frame.column(name) for fs in feature_sets for name in fs}
    target_columns = [frame.column(t) for t in targets]
    lags = np.arange(1 - window, 1)  # a window's rows relative to its anchor
    leads = 1 + pair_targets(np.arange(horizon), window)  # the target row paired with each of them
    size = max(1, _BLOCK_CELLS // window)
    scores = []
    for start in range(0, len(anchors), size):
        part = anchors[start : start + size, None]
        columns = {name: _Column(col[part + lags]) for name, col in feature_columns.items()}
        ys = [_Column(col[part + leads]) for col in target_columns]
        sets = [tuple(columns[name] for name in fs) for fs in feature_sets]
        scores += _Block(len(part), sets, ys, feature_bins, bin_width).scores(measure_rows)
    return anchors, scores


def _scan_block(frame: TimeSeriesFrame, space: SearchSpace, window: int, block: slice) -> list:
    """(objective, degenerate) of every trial of one window's anchor block, per anchor."""
    _, scores = scan_window(
        frame, window, space.feature_sets, space.targets, space.measures,
        step=space.step, horizon=space.horizon if space.horizon is not None else window,
        bin_width=space.bin_width, feature_bins=space.feature_bins,
        min_samples=space.min_samples, block=block,
    )
    return [[(r.value, r.degenerate) for r in results] for results in scores]


_worker_scan: tuple | None = None  # a pool worker's (frame, space), sent once by _start_worker


def _start_worker(frame: TimeSeriesFrame, space: SearchSpace) -> None:
    global _worker_scan
    _worker_scan = (frame, space)


def _scan_unit(unit: tuple[int, slice]) -> list:
    return _scan_block(*_worker_scan, *unit)


def run_grid_search(
    frame: TimeSeriesFrame, space: SearchSpace, seed: int = 42, jobs: int = 1
) -> TrialLog:
    """Evaluate the full cartesian grid; trial order and ids are deterministic.

    Unknown columns fail before any trial runs.  Anchors are independent, so
    jobs > 1 fans contiguous anchor blocks, about 2 * jobs per window, out
    over processes (the frame goes to each worker once) without changing
    the log contents.
    """
    referenced = {c for fs in space.feature_sets for c in fs}
    referenced.update(space.targets)
    referenced.add("close")  # trend labels come from the close column
    for name in sorted(referenced):
        frame.column(name)

    started = time.perf_counter()
    anchors = {
        w: anchor_grid(len(frame), w, space.step, space.horizon if space.horizon is not None else w)
        for w in space.window_sizes
    }
    if jobs > 1:
        units = []
        for w in anchors:
            count = len(anchors[w])
            parts = max(1, min(2 * jobs, count))
            bounds = [count * i // parts for i in range(parts + 1)]
            units += [(w, slice(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_start_worker, initargs=(frame, space)
        ) as pool:
            blocks = list(pool.map(_scan_unit, units))
        scores = {w: [] for w in anchors}
        for (w, _), block in zip(units, blocks):
            scores[w] += block
    else:
        scores = {w: _scan_block(frame, space, w, slice(None)) for w in anchors}

    configs = [
        (features, target, measure)
        for features in space.feature_sets
        for target in space.targets
        for measure in space.measures
    ]
    close = frame.column("close")
    records = []
    for w in space.window_sizes:
        # One trend label per anchor, shared by every configuration.
        labels = [
            (str(frame.timestamps[a]), label_trend(close, a)) for a in anchors[w].tolist()
        ]
        for c, config in enumerate(configs):
            for (date, trend), trials in zip(labels, scores[w]):
                records.append(TrialRecord(len(records), w, *config, date, trend, *trials[c]))
    return TrialLog(
        records=tuple(records),
        space=space,
        seed=seed,
        created_utc=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        elapsed_s=time.perf_counter() - started,
    )


def config_key(window_size: int, features, target: str, measure: str) -> str:
    """Canonical configuration key used to join trial logs with external scores."""
    return f"{window_size}|{'+'.join(features)}|{target}|{measure}"


def _csv_text(columns: tuple[str, ...], records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(r, name) for name in columns] for r in records)
    return buf.getvalue()


def write_trial_log_csv(log_: TrialLog, destination=None) -> str | None:
    """Write trial rows as CSV; feature names inside a set are joined with '|'."""
    return _emit(_csv_text(TRIAL_CSV_HEADER, log_.records), destination)


def read_trial_log_csv(source) -> TrialLog:
    """Read back a trial CSV written by write_trial_log_csv."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
    reader = csv.reader(io.StringIO(text))
    if tuple(next(reader, ())) != TRIAL_CSV_HEADER:
        raise ValueError(f"expected header {','.join(TRIAL_CSV_HEADER)}")
    records = [_read_trial(row, reader.line_num) for row in reader]
    return TrialLog(records=tuple(records), space=None, seed=-1)


def _read_trial(row: list[str], line: int) -> TrialRecord:
    """One trial-log row as a record; a row that write_trial_log_csv cannot write raises."""
    where = f"line {line}:"
    if len(row) != len(TRIAL_CSV_HEADER):
        raise ValueError(f"{where} expected {len(TRIAL_CSV_HEADER)} cells, got {len(row)}")
    cells = dict(zip(TRIAL_CSV_HEADER, row))
    flag, objective = cells["degenerate"], cells["objective"]
    if flag not in ("true", "false"):
        raise ValueError(f"{where} degenerate must be true or false, got {flag!r}")
    try:
        record = TrialRecord(*[_PARSERS.get(name, str)(cell) for name, cell in cells.items()])
    except ValueError as exc:
        raise ValueError(f"{where} {exc}") from None
    if record.degenerate and not math.isnan(record.objective):
        raise ValueError(f"{where} a degenerate trial has objective nan, got {objective}")
    if not (record.degenerate or math.isfinite(record.objective)):
        raise ValueError(f"{where} a scored trial has a finite objective, got {objective}")
    return record


def write_trial_log_json(log_: TrialLog, destination=None) -> str | None:
    """JSON form: the search-space echo, the seed, wall-clock metadata, all trials.

    Each trial is its record's fields, with a NaN objective written as null.
    """
    payload = {
        "space": asdict(log_.space) if log_.space is not None else None,
        "seed": log_.seed,
        "created_utc": log_.created_utc,
        "elapsed_s": log_.elapsed_s,
        "trials": [
            {**vars(r), "objective": None if math.isnan(r.objective) else r.objective}
            for r in log_.records
        ],
    }
    return _emit(json.dumps(payload, indent=2) + "\n", destination)


def write_parallel_coordinates(log_: TrialLog, destination=None) -> str | None:
    """One row per scored trial, one column per axis plus the objective.

    Degenerate trials are omitted because they have no objective to plot.
    """
    scored = [r for r in log_.records if not r.degenerate]
    return _emit(_csv_text(GROUP_AXES + ("objective",), scored), destination)


@dataclass(frozen=True)
class RankedGroup:
    value: str
    median_objective: float
    trials: int


@dataclass(frozen=True)
class RankingReport:
    group_by: str
    rows: tuple[RankedGroup, ...]
    notice: str = ""

    @property
    def best(self) -> RankedGroup | None:
        return self.rows[0] if self.rows else None


def rank_hyperparameters(log_: TrialLog, group_by: str, trend: str | None = None) -> RankingReport:
    """Rank one axis by the median objective of its non-degenerate trials.

    An optional trend filter keeps only anchors labeled with that trend; it
    never changes surviving objectives, only drops records.
    """
    if group_by not in GROUP_AXES:
        raise ValueError(f"group_by must be one of {GROUP_AXES}, got {group_by!r}")
    if trend is not None and trend not in TREND_LABELS:
        raise ValueError(f"trend must be one of {TREND_LABELS}, got {trend!r}")
    groups: dict[str, list[float]] = {}
    for r in log_.records:
        if r.degenerate or (trend is not None and r.trend != trend):
            continue
        groups.setdefault(_cell(r, group_by), []).append(r.objective)
    rows = [
        RankedGroup(value=v, median_objective=float(np.median(objs)), trials=len(objs))
        for v, objs in groups.items()
    ]
    rows.sort(key=lambda g: (-g.median_objective, g.value))
    notice = "" if rows else "no non-degenerate trials matched the filter"
    return RankingReport(group_by=group_by, rows=tuple(rows), notice=notice)


def correlate_measure_with_scores(log_: TrialLog, scores: dict[str, float]) -> MeasureResult:
    """Spearman correlation between per-configuration median objectives and external scores.

    Configurations are keyed by config_key; at least 3 overlapping keys are
    required for a meaningful rank correlation.
    """
    by_key: dict[str, list[float]] = {}
    for r in log_.records:
        if r.degenerate:
            continue
        key = config_key(r.window_size, r.features, r.target, r.measure)
        by_key.setdefault(key, []).append(r.objective)
    overlap = sorted(k for k in by_key if k in scores)
    if len(overlap) < 3:
        raise ValueError(
            f"need at least 3 overlapping configurations, got {len(overlap)}"
        )
    objectives = [float(np.median(by_key[k])) for k in overlap]
    external = [float(scores[k]) for k in overlap]
    result = spearman(objectives, external)
    params = dict(result.params)
    params["overlap"] = len(overlap)
    return MeasureResult(
        result.measure_id, result.value, result.sample_size, params=params,
        degenerate=result.degenerate,
    )
