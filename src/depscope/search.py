"""Exhaustive hyperparameter search over windows, feature sets, targets and measures.

Every (window, feature set, target, measure) configuration is evaluated at
every anchor on the step grid; one anchor evaluation is one trial.  Trials
that cannot be scored (too few pairs, incompatible arity, constant input)
are logged as degenerate records instead of being dropped.

One column-major scan scores them (scan_window): window, then anchor, then
column.  At each anchor every column's window, and what the measures derive
from it (codes, entropies, centred distances), is made once and read by
every trial that uses it.
"""
from __future__ import annotations

import csv
import io
import json
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path

import numpy as np

from .frame import TimeSeriesFrame
from .measures import MeasureResult, degenerate_result, pearson, spearman
from .measures.information import (
    _check_set_size,
    _Coded,
    _coded,
    _equal_frequency_codes,
    _information_gain,
    _mi,
    _mic,
    _mic_marginals,
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
from .shaping import anchor_grid, discretize, pair_targets

# Unused here; perfbench/layers.py looks these names up in this module to trace a run.
from .measures import equal_frequency_symbols  # noqa: F401
from .shaping import pair_arrays  # noqa: F401

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


_READ_ORDER = frozenset({"SC", "PPS"})  # the measures that read a column's argsort


class _Column:
    """One column's values in one window and what is derived from it alone, each made once.

    ranked says whether a measure of the scan reads the column's stable
    argsort (SC's ranks, the PPS tree's presort).  The sorted values that
    the equal-frequency codes of every bin count read then come through
    that argsort, else from a plain sort, which is cheaper: either way the
    column is sorted once.
    """

    def __init__(self, values: np.ndarray, feature_bins: int, ranked: bool):
        self.values = values
        self.finite = bool(np.isfinite(values).all())
        self.feature_bins = feature_bins
        self.ranked = ranked

    @cached_property
    def order(self) -> np.ndarray:
        """The stable ascending argsort of the values."""
        return np.argsort(self.values, kind="stable")

    @cached_property
    def ordered(self) -> np.ndarray:
        """The values ascending."""
        return self.values[self.order] if self.ranked else np.sort(self.values)

    def bins(self, counts: tuple[int, ...]) -> list[np.ndarray]:
        """Equal-frequency codes at each bin count in counts, as a list."""
        return _equal_frequency_codes(self.values, self.ordered, counts)

    @cached_property
    def feature_codes(self) -> np.ndarray:
        """The feature codes MI, IG and RSI_SYNERGY count: equal-frequency at feature_bins."""
        return self.bins((self.feature_bins,))[0]

    @cached_property
    def coded(self) -> _Coded:
        return _coded(self.feature_codes)

    @cached_property
    def ranks(self) -> np.ndarray:
        return _average_ranks(self.values, self.order)


class _Side:
    """A feature set or a target in one window, and what the measures derive from it, each made once.

    A side keeps its centred distance matrix for as long as the scan keeps the
    side: a target for one anchor, a feature set for one (anchor, feature set).
    A derivation that raises is not kept: each trial that reads it raises again.
    """

    def __init__(self, columns: list[_Column], bin_width: float):
        self.columns = columns
        self.n = columns[0].values.shape[0]
        self.finite = all(c.finite for c in columns)
        self.bin_width = bin_width

    @property
    def values(self) -> np.ndarray:
        return self.columns[0].values

    @cached_property
    def points(self) -> np.ndarray:
        """The window as an (n, F) matrix of row points."""
        return np.column_stack([c.values for c in self.columns])

    @cached_property
    def orders(self) -> np.ndarray:
        """The columns' sort orders stacked by row, the PPS tree's presort."""
        return np.stack([c.order for c in self.columns])

    @cached_property
    def centered_distances(self) -> tuple[np.ndarray, float]:
        return _centered_distances(self.points)

    @cached_property
    def coded(self) -> _Coded:
        """Feature codes; a set's rows are its members' codes side by side."""
        if len(self.columns) == 1:
            return self.columns[0].coded
        return _coded(np.column_stack([c.feature_codes for c in self.columns]))

    @cached_property
    def fixed_width(self) -> _Coded:
        """Target codes: fixed-width bins of bin_width."""
        return _coded(discretize(self.values, self.bin_width))

    @cached_property
    def mic_marginals(self) -> tuple[np.ndarray, np.ndarray]:
        return _mic_marginals(self.columns[0].bins, self.n)


def _score(m: Measure, x: _Side, y: _Side) -> MeasureResult:
    """Score one measure's table row m on a window's feature side x and target side y.

    This is the one scorer behind evaluate_pairs and every scan.  Non-finite
    input and pairwise-only measures on multivariate input are
    degenerate-flagged up front; a ValueError inside a measure, including a
    value outside its range, comes back flagged with its message as reason.
    """
    n = x.n
    measure = m.id
    if not (x.finite and y.finite):
        return degenerate_result(measure, n, "non-finite input")
    if m.pairwise and len(x.columns) > 1:
        return degenerate_result(measure, n, "pairwise measure on multivariate input")
    if y.n != n:
        return degenerate_result(measure, n, f"length mismatch: {n} vs {y.n}")
    try:
        if measure == "PC":
            return pearson(x.values, y.values)
        if measure == "SC":
            return _spearman(x.columns[0].ranks, y.columns[0].ranks)
        if measure == "DC":
            return _distance_correlation(
                x.points, x.centered_distances, y.points, y.centered_distances
            )
        if measure == "MIC":
            return _mic(x.mic_marginals, y.mic_marginals)
        if measure == "PPS":
            return _pps(x.points, y.values, x.orders)
        y_codes = y.fixed_width
        if measure == "RSI_SYNERGY":
            _check_set_size(len(x.columns))
            singles = [c.coded for c in x.columns]
            return _synergy(x.coded, singles, y_codes)
        if measure == "MI":
            return MeasureResult("MI", _mi(x.coded, y_codes), n)
        return _information_gain(y_codes, x.coded)  # IG: features assign the split branches
    except ValueError as exc:
        return degenerate_result(measure, n, str(exc))


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
    capacity limit, come back flagged as well.
    """
    m = measure_row(measure)
    check_binning(bin_width, feature_bins)
    xs = as_points(xs)
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 1:
        raise ValueError(f"ys must be a vector of targets, got shape {ys.shape}")
    ranked = m.id in _READ_ORDER
    x = _Side([_Column(column, feature_bins, ranked) for column in xs.T], bin_width)
    return _score(m, x, _Side([_Column(ys, feature_bins, ranked)], bin_width))


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
    measurement.  At each anchor, each column is cut and binned once for all
    trials; targets keep their derived data for the anchor, feature sets for
    their own trials only.  Windows with fewer than min_samples pairs come
    back degenerate without being scored.
    """
    check_binning(bin_width, feature_bins)
    measure_rows = [measure_row(m) for m in measures]
    anchors = anchor_grid(len(frame), window, step, horizon)[block]
    trials_per_measure = len(feature_sets) * len(targets)
    if window < min_samples:
        flagged = [degenerate_result(m, window, f"fewer than {min_samples} pairs") for m in measures]
        return anchors, [flagged * trials_per_measure for _ in anchors]
    ranked = any(m.id in _READ_ORDER for m in measure_rows)
    feature_columns = {name: frame.column(name) for fs in feature_sets for name in fs}
    target_columns = [frame.column(t) for t in targets]
    scores = []
    for a in anchors.tolist():
        columns = {
            name: _Column(col[a - window + 1 : a + 1], feature_bins, ranked)
            for name, col in feature_columns.items()
        }
        paired = [pair_targets(col[a + 1 : a + 1 + horizon], window) for col in target_columns]
        ys = [_Side([_Column(y, feature_bins, ranked)], bin_width) for y in paired]
        results = []
        for fs in feature_sets:
            x = _Side([columns[name] for name in fs], bin_width)
            results.extend(_score(m, x, y) for y in ys for m in measure_rows)
        scores.append(results)
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


def _emit(text: str, destination) -> str | None:
    """Return the text when destination is None, else write it there as UTF-8 and return None."""
    if destination is None:
        return text
    Path(destination).write_text(text, encoding="utf-8")
    return None


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
