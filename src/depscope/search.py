"""Exhaustive hyperparameter search over windows, feature sets, targets and measures.

Every (window, feature set, target, measure) configuration is evaluated at
every anchor on the step grid; one anchor evaluation is one trial.  Trials
that cannot be scored (too few pairs, incompatible arity, constant input)
are logged as degenerate records instead of being dropped.

One column-major scan scores them (scan_window): window, then a block of
anchors, then column and measure.  Each block cuts every column's windows
into one (anchors, W) matrix and sorts each row once, by a stable argsort.
A block is sized by the window cells of all the distinct columns it cuts,
with a cap per column, so a narrow scan (one signal, one target) takes as
many anchors a block as that cap allows.  One rule (_anchor_blocks) cuts
the blocks, and run_grid_search's units of work are those same blocks at
every jobs: scored in-process, or over a pool of at most one worker per
block, so every trial is the same bits at any jobs.
One block scorer (_Block) scores every trial of a block, and
evaluate_pairs is a one-anchor block.  _Block makes one call per measure
of that measure's block kernel, kernel(sets, ys), in the measure's
module, which scores every (feature set, target) pair of the block at
every anchor, then flags each anchor with the first reason that holds, in
one order for every measure (non-finite input is flagged here alone).  What a
measure derives from a window (ranks, codes, entropies) is made once per
kernel call, and MI, IG and RSI_SYNERGY share their codes and MI values
for the block.  The largest temporaries, MIC's joint cells and DC's
centred distances, are made in buffers that the measure's kernel
allocates once per call, not per trial or anchor: a fresh array of
hundreds of KiB costs its pages on every call.

Scores stay arrays from the kernels to the trial log: each kernel returns
its values and the (mask, reason) checks it adds, and a block one value and
one reason per (anchor, trial).  The scan builds no MeasureResult.

The trial-log writers hand chunks of frame._CHUNK_ROWS trials to
frame._write_table, one text column per field, each formatted with one
C-level call per cell (a value that cannot be written raises TypeError or
ValueError).  The reader parses one row at a time as it reads it, so the
first faulty row raises.  trials.csv is the one trial table; trials.json
is the run record (search space, seed, wall-clock facts) and lists no
trial.
"""
from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from itertools import filterfalse
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .frame import TimeSeriesFrame, _chunks, _emit, _table, _write_table
from .measures import MeasureResult, degenerate_result, spearman
from .measures.information import _information_kernels, _mics
from .measures.model_based import _ppss
from .measures.result import Measure, _Column, as_points, measure_row
from .measures.statistical import _distance_correlations, _pearsons, _spearmans
from .shaping import anchor_grid, pair_targets

# Unused here; perfbench/layers.py looks these names up in this module to trace a run.
from .measures import equal_frequency_symbols  # noqa: F401
from .shaping import discretize, pair_arrays  # noqa: F401

log = logging.getLogger(__name__)

TREND_LABELS = ("DOWN", "NEUTRAL", "UP")
TREND_LOOKBACK = 20  # rows back from the anchor that the trend return spans
TREND_THRESHOLD = 0.02  # a trend return above this is UP, below its negative DOWN
MIN_WINDOW = 8  # the narrowest window a search space takes


def check_windows(window_sizes, *, name: str = "window sizes") -> None:
    """Refuse a window narrower than MIN_WINDOW; name is what the message calls the sizes."""
    for window in window_sizes:
        if window < MIN_WINDOW:
            raise ValueError(f"{name} must be >= {MIN_WINDOW}, got {window}")


def check_binning(
    bin_width: float, feature_bins: int, *, width: str = "bin_width", bins: str = "feature_bins"
) -> None:
    """Refuse binning settings on every path that scores: search, scans, evaluate_pairs and the CLI.

    width and bins are what the message calls the two settings: a Python
    field by default, a flag with its unit and value on the command line.
    """
    if not (bin_width > 0.0):
        raise ValueError(f"{width} must be positive")
    if bin_width == math.inf:  # every target would code to one symbol
        raise ValueError(f"{width} must be finite")
    if not (2 <= feature_bins <= 16):
        raise ValueError(f"{bins} must be between 2 and 16")


# Characters no name may contain, with what each would break: the trial log and config_key
# join names with | and +, and csv.writer leaves a cell holding \r unquoted.
_UNQUOTED = {"\r": "csv.writer leaves unquoted, so the trial log could not be read back"}
_FEATURE_JOINS = {
    "|": "the trial log joins a feature set's names with",
    "+": "config_key joins a feature set's names with",
    **_UNQUOTED,
}
_TARGET_JOINS = {"|": "config_key separates its fields with", **_UNQUOTED}


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
        check_windows(self.window_sizes)
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


class TrialRecord(NamedTuple):
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


TRIAL_CSV_HEADER = TrialRecord._fields
GROUP_AXES = ("window_size", "features", "target", "measure")

_FLAG_TEXT = {True: "true", False: "false"}


def _cells(records, name: str) -> list[str]:
    """One field of every trial as it appears in the CSV artifacts and in rankings; a value
    that cannot be written raises TypeError or ValueError."""
    convert = {"features": "|".join, "objective": float, "degenerate": bool}.get(name, str)
    cells = list(map(convert, map(attrgetter(name), records)))
    if name == "objective":
        return list(map(repr, cells))
    if name == "degenerate":
        return list(map(_FLAG_TEXT.__getitem__, cells))
    return cells


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


# Window entries in one anchor block, over all its distinct columns and per column
# (_anchor_blocks), so no temporary grows with the number of anchors of a scan.  The
# per-column cap bounds what grows with one column's cells (MIC's (anchors, shapes, n)
# tables, a PPS stack's rows).
_BLOCK_CELLS = 24_576
_COLUMN_CELLS = 4_096


def _anchor_blocks(count: int, window: int, feature_sets, targets) -> list[slice]:
    """The blocks, in order, that a scan cuts from count anchors of window over feature_sets
    and targets: the one block partition of scan_window and of run_grid_search's units."""
    columns = len({name for fs in feature_sets for name in fs}) + len(set(targets))
    size = max(1, min(_BLOCK_CELLS // (window * columns), _COLUMN_CELLS // window))
    return [slice(start, start + size) for start in range(0, count, size)]


NON_FINITE = "non-finite input"
PAIRWISE = "pairwise measure on multivariate input"


@dataclass
class _Block:
    """Every (feature set, target, measure) trial of one anchor block, as arrays.

    Each measure is one call of its block kernel, kernel(sets, ys), which
    scores every (feature set, target) pair at every anchor: an (A, S, T)
    value array and the (mask, reason) checks it adds.  Each trial flags an
    anchor with the first reason that holds, in one order for every measure:
    non-finite input (flagged here alone), a pairwise measure on a set, the
    kernel's checks (a ValueError it raises flags all its trials), then the
    value range.  What a kernel makes lives for that call only, but MI, IG
    and RSI_SYNERGY share codes and MI values for the block.
    """

    anchors: int  # rows of every column's matrix
    sets: list[tuple[_Column, ...]]  # each feature set's columns
    ys: list[_Column]  # the targets
    feature_bins: int
    bin_width: float

    def scores(self, measure_rows: list[Measure]) -> tuple[np.ndarray, np.ndarray]:
        """An (A, T) float64 value matrix, one column per trial in (feature set, target,
        measure) order, NaN exactly where the (A, T) matrix of reasons does not hold ""."""
        kernels = {
            "PC": _pearsons, "SC": _spearmans, "DC": _distance_correlations, "MIC": _mics,
            "PPS": _ppss, **_information_kernels(self.feature_bins, self.bin_width),
        }
        shape = (self.anchors, len(self.sets), len(self.ys))
        finite = np.stack([np.logical_and.reduce([c.finite for c in x]) for x in self.sets], 1)
        finite = finite[:, :, None] & np.stack([y.finite for y in self.ys], 1)[:, None, :]
        multi = np.array([len(x) > 1 for x in self.sets])[None, :, None]
        values = np.full(shape + (len(measure_rows),), np.nan)
        reasons = np.empty(values.shape, dtype=object)
        for k, m in enumerate(measure_rows):
            checks = [(~finite, NON_FINITE), (multi & m.pairwise, PAIRWISE)]
            try:
                values[..., k], found = kernels[m.id](self.sets, self.ys)
                checks += found
            except ValueError as exc:
                checks.append((True, str(exc)))
            reason = np.full(shape, "", dtype=object)
            for mask, text in reversed(checks):  # the first check that holds writes last
                reason[np.broadcast_to(mask, shape)] = text
            value, (lo, hi) = values[..., k], m.range
            for cell in zip(*np.nonzero((reason == "") & ~((lo <= value) & (value <= hi)))):
                reason[cell] = f"{m.id} value {float(value[cell])} outside [{lo}, {hi}]"
            value[reason != ""] = np.nan
            reasons[..., k] = reason
        return values.reshape(self.anchors, -1), reasons.reshape(self.anchors, -1)


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
    multivariate input are degenerate-flagged up front, then sides of
    unequal length; numeric degeneracies inside a measure, including
    synergy sets above its capacity limit, come back flagged as well.  The
    pair is scored as a one-anchor block of the scan.
    """
    m = measure_row(measure)
    check_binning(bin_width, feature_bins)
    xs = as_points(xs)
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 1:
        raise ValueError(f"ys must be a vector of targets, got shape {ys.shape}")
    x = tuple(_Column(column[None, :]) for column in xs.T)
    y = _Column(ys[None, :])
    if xs.shape[0] != ys.shape[0]:  # a block pairs equal lengths; its first checks come first
        reason = (
            NON_FINITE if not all(c.finite[0] for c in x + (y,))
            else PAIRWISE if m.pairwise and len(x) > 1
            else f"length mismatch: {xs.shape[0]} vs {ys.shape[0]}"
        )
        return degenerate_result(m.id, xs.shape[0], reason)
    values, reasons = _Block(1, [x], [y], feature_bins, bin_width).scores([m])
    if reasons[0, 0]:
        return degenerate_result(m.id, xs.shape[0], reasons[0, 0])
    return MeasureResult(m.id, float(values[0, 0]), xs.shape[0])


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score every (feature set, target, measure) at every anchor of one window grid.

    Returns the anchors, oldest first (only those in block), and _Block.scores'
    value and reason matrices over them.  This is the one anchor loop behind
    the grid search, verification and windowed measurement.  It walks the
    anchors in blocks of at most _BLOCK_CELLS window cells over all the
    distinct feature and target columns and _COLUMN_CELLS per column: each
    block cuts every column's windows into one matrix and scores every
    anchor of the block from it (_Block); every measure keeps what it
    derives (ranks, codes, sides, buffers, stacks) in its own block kernel.
    Windows with fewer than min_samples pairs come back degenerate without
    being scored.
    """
    check_binning(bin_width, feature_bins)
    measure_rows = [measure_row(m) for m in measures]
    anchors = anchor_grid(len(frame), window, step, horizon)[block]
    shape = (len(anchors), len(feature_sets) * len(targets) * len(measure_rows))
    if window < min_samples:
        reason = f"fewer than {min_samples} pairs"
        return anchors, np.full(shape, np.nan), np.full(shape, reason, dtype=object)
    feature_columns = {name: frame.column(name) for fs in feature_sets for name in fs}
    target_columns = {name: frame.column(name) for name in targets}
    lags = np.arange(1 - window, 1)  # a window's rows relative to its anchor
    leads = 1 + pair_targets(np.arange(horizon), window)  # the target row paired with each of them
    values, reasons = np.empty(shape), np.empty(shape, dtype=object)
    for cut in _anchor_blocks(len(anchors), window, feature_sets, targets):
        part = anchors[cut, None]
        columns = {name: _Column(col[part + lags]) for name, col in feature_columns.items()}
        cut_targets = {name: _Column(col[part + leads]) for name, col in target_columns.items()}
        ys = [cut_targets[name] for name in targets]
        sets = [tuple(columns[name] for name in fs) for fs in feature_sets]
        block_scores = _Block(len(part), sets, ys, feature_bins, bin_width).scores(measure_rows)
        values[cut], reasons[cut] = block_scores
    return anchors, values, reasons


def _scan_block(frame: TimeSeriesFrame, space: SearchSpace, window: int, block: slice) -> tuple:
    """The values and reasons of every trial of one window's anchor block (scan_window)."""
    return scan_window(
        frame, window, space.feature_sets, space.targets, space.measures,
        step=space.step, horizon=space.horizon if space.horizon is not None else window,
        bin_width=space.bin_width, feature_bins=space.feature_bins,
        min_samples=space.min_samples, block=block,
    )[1:]


_worker_scan: tuple | None = None  # a pool worker's (frame, space), sent once by _start_worker


def _start_worker(frame: TimeSeriesFrame, space: SearchSpace) -> None:
    global _worker_scan
    _worker_scan = (frame, space)


def _scan_unit(unit: tuple[int, slice]) -> tuple:
    return _scan_block(*_worker_scan, *unit)


def run_grid_search(
    frame: TimeSeriesFrame, space: SearchSpace, seed: int = 42, jobs: int = 1
) -> TrialLog:
    """Evaluate the full cartesian grid; trial order and ids are deterministic.

    Unknown columns fail before any trial runs.  The units of work are the
    anchor blocks scan_window cuts, window by window (_anchor_blocks); they
    are scored in-process at jobs=1 and otherwise over a pool of
    min(jobs, blocks) processes (the frame goes to each worker once), so the
    log contents are the same at every jobs.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
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
    units = [
        (w, block)
        for w in anchors
        for block in _anchor_blocks(len(anchors[w]), w, space.feature_sets, space.targets)
    ]
    workers = min(jobs, len(units))
    if workers > 1:
        # Imported here, so that importing depscope loads no multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_start_worker, initargs=(frame, space)
        ) as pool:
            blocks = list(pool.map(_scan_unit, units))
    else:
        blocks = [_scan_block(frame, space, *unit) for unit in units]
    parts = {w: [] for w in anchors}
    for (w, _), block in zip(units, blocks):
        parts[w].append(block)

    configs = [
        (features, target, measure)
        for features in space.feature_sets
        for target in space.targets
        for measure in space.measures
    ]
    close = frame.column("close")
    records = []
    for w in space.window_sizes:
        if not parts[w]:
            continue  # no anchor, so no trial
        # One trend label per anchor, shared by every configuration.
        labels = [
            (str(frame.timestamps[a]), label_trend(close, a)) for a in anchors[w].tolist()
        ]
        values, reasons = map(np.concatenate, zip(*parts[w]))
        flags = reasons != ""
        objectives = values.astype(object)
        objectives[flags] = math.nan  # one NaN object, so that equal logs compare equal
        for c, config in enumerate(configs):
            trials = zip(labels, objectives[:, c].tolist(), flags[:, c].tolist())
            for (date, trend), value, flag in trials:
                records.append(TrialRecord(len(records), w, *config, date, trend, value, flag))
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


def write_trial_log_csv(log_: TrialLog, destination=None) -> str | None:
    """Write trial rows as CSV; feature names inside a set are joined with '|'."""
    chunks = ([_cells(rows, name) for name in TRIAL_CSV_HEADER] for rows in _chunks(log_.records))
    return _write_table(TRIAL_CSV_HEADER, chunks, destination)


def read_trial_log_csv(source) -> TrialLog:
    """Read back a trial CSV written by write_trial_log_csv, from a path or a text stream.

    Blank rows are skipped.  A row that write_trial_log_csv cannot write
    raises ValueError naming the physical line it ends on.  Rows are parsed
    one at a time as they are read (frame._table), so the first faulty row
    raises, with its first fault in the order _trial checks its cells.
    Trials of one feature set share one tuple.
    """
    with _table(source) as (header, reader, _):
        if tuple(header or ()) != TRIAL_CSV_HEADER:
            raise ValueError(f"expected header {','.join(TRIAL_CSV_HEADER)}")
        sets: dict[str, tuple[str, ...]] = {}
        records = []
        for row in reader:
            if not row:
                continue
            try:
                records.append(_trial(row, sets))
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
    return TrialLog(records=tuple(records), space=None, seed=-1)


def _trial(row: list[str], sets: dict) -> TrialRecord:
    """One row of read_trial_log_csv, its checks in order: cell count, degenerate flag,
    trial_id, window_size, objective, then the objective against its flag.  sets maps each
    features cell read so far to its tuple."""
    if len(row) != len(TRIAL_CSV_HEADER):
        raise ValueError(f"expected {len(TRIAL_CSV_HEADER)} cells, got {len(row)}")
    trial_id, window, features, target, measure, anchor, trend, objective, flag = row
    if flag not in ("true", "false"):
        raise ValueError(f"degenerate must be true or false, got {flag!r}")
    if features not in sets:
        sets[features] = tuple(features.split("|"))
    record = TrialRecord(
        int(trial_id), int(window), sets[features], target, measure, anchor, trend,
        float(objective), flag == "true",
    )
    if record.degenerate and not math.isnan(record.objective):
        raise ValueError(f"a degenerate trial has objective nan, got {objective}")
    if not (record.degenerate or math.isfinite(record.objective)):
        raise ValueError(f"a scored trial has a finite objective, got {objective}")
    return record


def write_trial_log_json(log_: TrialLog, destination=None) -> str | None:
    """The run record: the search-space echo, the seed and wall-clock metadata.

    The trials themselves are trials.csv's alone.
    """
    record = {
        "space": asdict(log_.space) if log_.space is not None else None,
        "seed": log_.seed,
        "created_utc": log_.created_utc,
        "elapsed_s": log_.elapsed_s,
    }
    return _emit((json.dumps(record, indent=2) + "\n",), destination)


def write_parallel_coordinates(log_: TrialLog, destination=None) -> str | None:
    """One row per scored trial, one column per axis plus the objective.

    Degenerate trials are omitted because they have no objective to plot.
    """
    names = GROUP_AXES + ("objective",)
    scored = filterfalse(attrgetter("degenerate"), log_.records)
    chunks = ([_cells(rows, name) for name in names] for rows in _chunks(scored))
    return _write_table(names, chunks, destination)


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
    kept = [
        r for r in log_.records if not (r.degenerate or (trend is not None and r.trend != trend))
    ]
    values = _cells(kept, group_by)
    groups: dict[str, list[float]] = {}
    for value, r in zip(values, kept):
        groups.setdefault(value, []).append(r.objective)
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
    return replace(result, params={**result.params, "overlap": len(overlap)})
