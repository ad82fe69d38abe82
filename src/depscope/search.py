"""Exhaustive hyperparameter search over windows, feature sets, targets and measures.

Every (window, feature set, target, measure) configuration is evaluated at
every anchor on the step grid; one anchor evaluation is one trial.  Trials
that cannot be scored (too few pairs, incompatible arity, constant input)
are logged as degenerate records instead of being dropped.
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
from pathlib import Path

import numpy as np

from .frame import TimeSeriesFrame
from .measures import (
    MEASURE_IDS,
    MeasureResult,
    degenerate_result,
    distance_correlation,
    equal_frequency_symbols,
    information_gain,
    mic,
    pearson,
    pps,
    redundancy_synergy_index,
    spearman,
)
from .measures.information import _mi_symbols
from .shaping import WindowSample, discretize, make_sliding_windows, pair_arrays

log = logging.getLogger(__name__)

TREND_LABELS = ("DOWN", "NEUTRAL", "UP")
TREND_LOOKBACK = 20  # rows back from the anchor that the trend return spans
TREND_THRESHOLD = 0.02  # a trend return above this is UP, below its negative DOWN


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
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must be >= 1 when given")
        if self.step < 1:
            raise ValueError("step must be >= 1")
        unknown = [m for m in self.measures if m not in MEASURE_IDS]
        if unknown:
            raise ValueError(f"unknown measure ids {unknown}; valid ids are {MEASURE_IDS}")
        if not (self.bin_width > 0.0):
            raise ValueError("bin_width must be positive")
        if not (2 <= self.feature_bins <= 16):
            raise ValueError("feature_bins must be between 2 and 16")
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


def _feature_symbols(xs: np.ndarray, bins: int) -> list[np.ndarray]:
    return [equal_frequency_symbols(xs[:, j], bins) for j in range(xs.shape[1])]


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
    if measure not in MEASURE_IDS:
        raise ValueError(f"unknown measure id {measure!r}; valid ids are {MEASURE_IDS}")
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim == 1:
        xs = xs[:, None]
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 1:
        raise ValueError(f"ys must be a vector of targets, got shape {ys.shape}")
    n, n_features = xs.shape

    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        return degenerate_result(measure, n, "non-finite input")
    if measure in ("PC", "SC", "MIC") and n_features > 1:
        return degenerate_result(measure, n, "pairwise measure on multivariate input")

    try:
        if measure == "PC":
            return pearson(xs[:, 0], ys)
        if measure == "SC":
            return spearman(xs[:, 0], ys)
        if measure == "DC":
            return distance_correlation(xs, ys)
        if measure == "MIC":
            return mic(xs[:, 0], ys)
        if measure == "PPS":
            return pps(xs, ys)
        feats = _feature_symbols(xs, feature_bins)
        y_sym = discretize(ys, bin_width)
        if measure == "RSI_SYNERGY":
            return redundancy_synergy_index(feats, y_sym)
        x_sym = feats[0] if n_features == 1 else np.column_stack(feats)
        if measure == "MI":
            return MeasureResult("MI", _mi_symbols(x_sym, y_sym), n)
        return information_gain(y_sym, x_sym)  # IG: features assign the split branches
    except ValueError as exc:
        return degenerate_result(measure, n, str(exc))


def scan_anchors(
    frame: TimeSeriesFrame,
    features,
    target: str,
    measure: str,
    window: int,
    step: int,
    horizon: int,
    *,
    bin_width: float,
    feature_bins: int,
    min_samples: int = 1,
) -> list[tuple[WindowSample, MeasureResult]]:
    """Score one measure at every anchor of one window grid, oldest anchor first.

    This is the one anchor loop behind the grid search, verification and
    windowed measurement.  Windows with fewer than min_samples pairs come
    back degenerate without being scored.
    """
    dataset = make_sliding_windows(frame, features, target, window, step, horizon)
    scored = []
    for sample in dataset.samples:
        xs, ys = pair_arrays(sample)
        if xs.shape[0] < min_samples:
            result = degenerate_result(measure, xs.shape[0], f"fewer than {min_samples} pairs")
        else:
            # measure and xs stay positional: perfbench's span tags read them from args.
            result = evaluate_pairs(measure, xs, ys, bin_width=bin_width, feature_bins=feature_bins)
        scored.append((sample, result))
    return scored


def _eval_config(args) -> list[tuple]:
    """TrialRecord fields after trial_id, in field order, for every anchor of one configuration."""
    frame, space, window, features, target, measure = args
    horizon = space.horizon if space.horizon is not None else window
    scored = scan_anchors(
        frame, features, target, measure, window, space.step, horizon,
        bin_width=space.bin_width, feature_bins=space.feature_bins, min_samples=space.min_samples,
    )
    close = frame.column("close")
    return [
        (
            window,
            features,
            target,
            measure,
            str(sample.anchor_time),
            label_trend(close, sample.anchor),
            result.value,
            result.degenerate,
        )
        for sample, result in scored
    ]


def run_grid_search(
    frame: TimeSeriesFrame, space: SearchSpace, seed: int = 42, jobs: int = 1
) -> TrialLog:
    """Evaluate the full cartesian grid; trial order and ids are deterministic.

    Unknown columns fail before any trial runs.  Configurations are
    independent, so jobs > 1 fans them out over processes without changing
    the log contents.
    """
    referenced = {c for fs in space.feature_sets for c in fs}
    referenced.update(space.targets)
    referenced.add("close")  # trend labels come from the close column
    for name in sorted(referenced):
        frame.column(name)

    started = time.perf_counter()
    configs = [
        (frame, space, window, features, target, measure)
        for window in space.window_sizes
        for features in space.feature_sets
        for target in space.targets
        for measure in space.measures
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_eval_config, configs, chunksize=max(1, len(configs) // (4 * jobs))))
    else:
        chunks = [_eval_config(cfg) for cfg in configs]

    rows = [row for chunk in chunks for row in chunk]
    return TrialLog(
        records=tuple(TrialRecord(trial_id, *row) for trial_id, row in enumerate(rows)),
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
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != TRIAL_CSV_HEADER:
        raise ValueError(f"expected header {','.join(TRIAL_CSV_HEADER)}")
    parsers = [_PARSERS.get(name, str) for name in TRIAL_CSV_HEADER]
    records = [TrialRecord(*[p(cell) for p, cell in zip(parsers, row)]) for row in rows[1:]]
    return TrialLog(records=tuple(records), space=None, seed=-1)


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
