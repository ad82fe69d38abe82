"""Timestamped OHLCV frames: strict CSV ingestion, validation, serialization.

A frame is an immutable bundle of a date axis plus equally long float
columns.  Loaders reject bad input instead of repairing it; the only
normalization applied is sorting rows into ascending date order.
"""
from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

OHLCV_HEADER = ("date", "open", "high", "low", "close", "volume")


class CsvParseError(ValueError):
    """Structurally malformed CSV input (bad header, field count, unparseable cell)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class ValidationIssue:
    row: int
    column: str
    kind: str

    def __str__(self) -> str:
        return f"row {self.row}, column {self.column}, kind {self.kind}"


@dataclass(frozen=True)
class ValidationReport:
    row_count: int
    issues: tuple[ValidationIssue, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        if self.ok:
            return f"{self.row_count} rows, no issues"
        lines = [f"{self.row_count} rows, {len(self.issues)} issue(s):"]
        lines += [f"  {issue}" for issue in self.issues]
        return "\n".join(lines)


class FrameValidationError(ValueError):
    """Raised by loaders when a parsed frame fails validation."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__(str(report))


@dataclass(frozen=True)
class TimeSeriesFrame:
    """Immutable daily time series: a date axis plus named float columns.

    Structural constraints (equal lengths, float dtype) are enforced at
    construction.  Semantic constraints (strictly increasing dates, finite
    values) are checked by validate_frame; every public loader refuses to
    return a frame that fails them.
    """

    timestamps: np.ndarray
    columns: dict[str, np.ndarray]
    source: str = ""

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype="datetime64[D]")
        cols: dict[str, np.ndarray] = {}
        for name, values in self.columns.items():
            arr = np.array(values, dtype=np.float64)
            if arr.ndim != 1 or arr.shape[0] != ts.shape[0]:
                raise ValueError(
                    f"column {name!r} has length {arr.shape}, expected ({ts.shape[0]},)"
                )
            arr.flags.writeable = False
            cols[name] = arr
        ts = ts.copy()
        ts.flags.writeable = False
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "columns", cols)

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(
                f"unknown column {name!r}; frame has {', '.join(self.columns)}"
            ) from None


def validate_frame(frame: TimeSeriesFrame) -> ValidationReport:
    """Enumerate semantic violations; an empty issue list means the frame is sound."""
    issues: list[ValidationIssue] = []
    ts = frame.timestamps
    for i in (np.flatnonzero(ts[1:] <= ts[:-1]) + 1).tolist():
        kind = "duplicate_time" if ts[i] == ts[i - 1] else "non_monotonic_time"
        issues.append(ValidationIssue(i, "date", kind))
    for name, arr in frame.columns.items():
        for i in np.flatnonzero(np.isnan(arr)):
            issues.append(ValidationIssue(int(i), name, "missing"))
        for i in np.flatnonzero(np.isinf(arr)):
            issues.append(ValidationIssue(int(i), name, "non_finite"))
    return ValidationReport(row_count=len(frame), issues=tuple(issues))


def _as_text(source) -> tuple[str, str]:
    """Pull CSV text out of a path, bytes, or file object; return (text, label)."""
    if isinstance(source, Path):
        return source.read_text(encoding="utf-8"), str(source)
    if isinstance(source, str):
        return Path(source).read_text(encoding="utf-8"), source
    if isinstance(source, (bytes, bytearray)):
        return bytes(source).decode("utf-8"), "<bytes>"
    data = source.read()
    label = getattr(source, "name", "<stream>")
    if isinstance(data, bytes):
        return data.decode("utf-8"), str(label)
    return data, str(label)


def read_frame(source, required_header: tuple[str, ...] | None = None) -> TimeSeriesFrame:
    """Parse a date-indexed CSV into a validated frame.

    The first column must be named "date" and hold ISO-8601 dates; every
    other column is parsed as float64.  Rows are sorted into ascending date
    order (the one permitted normalization).  A frame that fails
    validate_frame, because of empty (or NaN) cells, infinite cells or
    duplicate dates, raises FrameValidationError with validate_frame's issues
    sorted by row, column and kind.
    """
    text, label = _as_text(source)
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise CsvParseError("empty input", line=1)
    header = tuple(rows[0])
    if required_header is not None and header != required_header:
        raise CsvParseError(
            f"header must be exactly {','.join(required_header)!r}, got {','.join(header)!r}",
            line=1,
        )
    if not header or header[0] != "date" or len(header) < 2:
        raise CsvParseError("header must start with 'date' and name at least one column", line=1)
    if len(set(header)) != len(header):
        raise CsvParseError("duplicate column names in header", line=1)

    n = len(rows) - 1
    dates = np.empty(n, dtype="datetime64[D]")
    values = np.full((n, len(header) - 1), np.nan)  # an empty cell stays NaN: "missing"
    for r, row in enumerate(rows[1:]):
        line = r + 2
        if len(row) != len(header):
            raise CsvParseError(
                f"expected {len(header)} fields, got {len(row)}", line=line
            )
        try:
            dates[r] = date.fromisoformat(row[0].strip())
        except ValueError:
            raise CsvParseError(f"bad ISO-8601 date {row[0]!r}", line=line) from None
        for c, cell in enumerate(row[1:]):
            cell = cell.strip()
            if cell:
                try:
                    values[r, c] = float(cell)
                except ValueError:
                    raise CsvParseError(
                        f"bad numeric value {cell!r} in column {header[c + 1]}", line=line
                    ) from None

    order = np.argsort(dates, kind="stable")
    columns = {name: values[order, c] for c, name in enumerate(header[1:])}
    frame = TimeSeriesFrame(timestamps=dates[order], columns=columns, source=label)
    issues = validate_frame(frame).issues
    if issues:
        issues = tuple(sorted(issues, key=lambda it: (it.row, it.column, it.kind)))
        raise FrameValidationError(ValidationReport(row_count=n, issues=issues))
    return frame


def load_ohlcv(source) -> TimeSeriesFrame:
    """Load a daily OHLCV CSV with the exact header date,open,high,low,close,volume."""
    return read_frame(source, required_header=OHLCV_HEADER)


def write_csv(frame: TimeSeriesFrame, destination=None) -> str | None:
    """Serialize a frame to CSV text that read_frame maps back to an equal frame.

    Floats are written with repr, which round-trips float64 exactly.  Writes
    to a path or text file object when given one, else returns the text.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("date",) + frame.column_names)
    cols = [frame.columns[name] for name in frame.column_names]
    for i in range(len(frame)):
        writer.writerow([str(frame.timestamps[i])] + [repr(float(col[i])) for col in cols])
    return _emit(buf.getvalue(), destination)


def _emit(text: str, destination) -> str | None:
    """Return the text when destination is None, else write it to a path (as UTF-8) or to a
    text file object and return None."""
    if destination is None:
        return text
    if isinstance(destination, (str, os.PathLike)):
        Path(destination).write_text(text, encoding="utf-8")
    else:
        destination.write(text)
    return None


def frames_equal(a: TimeSeriesFrame, b: TimeSeriesFrame) -> bool:
    """Value equality on the date axis and every column (NaN == NaN)."""
    if a.column_names != b.column_names or len(a) != len(b):
        return False
    if not np.array_equal(a.timestamps, b.timestamps):
        return False
    return all(
        np.array_equal(a.columns[name], b.columns[name], equal_nan=True)
        for name in a.column_names
    )
