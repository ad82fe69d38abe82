"""Timestamped OHLCV frames: strict CSV ingestion, validation, serialization.

A frame is an immutable bundle of a date axis plus equally long float
columns.  Loaders reject bad input instead of repairing it; the only
normalization applied is sorting rows into ascending date order.  CSV
tables are parsed and written one column at a time; _FirstFault finds the
fault a row-by-row loop would stop at.
"""
from __future__ import annotations

import csv
import io
import os
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from datetime import date
from itertools import compress, count, islice
from pathlib import Path

import numpy as np

OHLCV_HEADER = ("date", "open", "high", "low", "close", "volume")
_MISSING = {"": "nan"}  # an empty numeric cell is parsed as NaN: "missing"
_EPOCH = date(1970, 1, 1).toordinal()  # day 0 of datetime64[D]


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


def _read_table(text: str) -> tuple[list[str] | None, list[list[str]]]:
    """The first row of CSV text (None when there is none) and the non-blank rows below it.

    Text the csv module cannot split into rows, such as a bare carriage
    return inside an unquoted cell, raises CsvParseError naming its line.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        return next(reader, None), list(filter(None, reader))
    except csv.Error as exc:
        raise CsvParseError(str(exc), line=reader.line_num) from None


def _line_of(text: str, row: int) -> int:
    """The physical line on which the row-th non-blank row below the first row ends."""
    reader = csv.reader(io.StringIO(text))
    next(reader)
    next(islice(filter(None, reader), row, None))
    return reader.line_num


class _FirstFault:
    """The first fault of a table that is checked one column at a time.

    Make the checks in the order a row-by-row loop makes them on one row.
    Each check looks only at the rows above the fault found so far, so the
    fault kept is the first faulty row's first fault, the one that loop
    stops at.
    """

    def __init__(self, rows: int):
        self.rows = rows  # the rows above the fault; all of them while there is none
        self.error = None  # what error(...) of the check that found the fault returned

    def flag(self, failed: Iterable, error: Callable[[int], object]) -> None:
        """A check that fails at the rows where failed is true; error(row) describes a failure."""
        row = next(compress(count(), islice(failed, self.rows)), None)
        if row is not None:
            self.rows, self.error = row, error(row)

    def map(
        self, convert: Callable, cells: Sequence, error: Callable[[int, Exception], object]
    ) -> list:
        """convert each cell above the fault; one that raises ValueError or TypeError is a fault.

        Returns the converted cells above the fault.
        """
        cells = cells[: self.rows]
        try:
            return list(map(convert, cells))
        except (TypeError, ValueError):
            pass
        values = []
        for row, cell in enumerate(cells):
            try:
                values.append(convert(cell))
            except (TypeError, ValueError) as exc:
                self.rows, self.error = row, error(row, exc)
                break
        return values


def read_frame(source, required_header: tuple[str, ...] | None = None) -> TimeSeriesFrame:
    """Parse a date-indexed CSV into a validated frame.

    The first column must be named "date" and hold ISO-8601 dates; every
    other column is parsed as float64.  Blank rows are skipped.  Rows are
    sorted into ascending date order (the one permitted normalization).  A
    frame that fails validate_frame, because of empty (or NaN) cells,
    infinite cells or duplicate dates, raises FrameValidationError with
    validate_frame's issues sorted by row, column and kind.  A parse error
    names the physical line its row ends on.  Each column is parsed in one
    pass; the error raised is the first faulty row's first faulty cell.
    """
    text, label = _as_text(source)
    header, rows = _read_table(text)
    if header is None:
        raise CsvParseError("empty input", line=1)
    header = tuple(header)
    if required_header is not None and header != required_header:
        raise CsvParseError(
            f"header must be exactly {','.join(required_header)!r}, got {','.join(header)!r}",
            line=1,
        )
    if not header or header[0] != "date" or len(header) < 2:
        raise CsvParseError("header must start with 'date' and name at least one column", line=1)
    if len(set(header)) != len(header):
        raise CsvParseError("duplicate column names in header", line=1)

    width = len(header)
    fault = _FirstFault(len(rows))
    fault.flag(
        map(width.__ne__, map(len, rows)),
        lambda row: f"expected {width} fields, got {len(rows[row])}",
    )
    cells = list(zip(*rows[: fault.rows])) or [()] * width
    raw_dates = cells[0]
    dates = fault.map(
        date.fromisoformat,
        list(map(str.strip, raw_dates)),
        lambda row, _: f"bad ISO-8601 date {raw_dates[row]!r}",
    )
    columns = {}
    for name, column in zip(header[1:], cells[1:]):
        column = list(map(str.strip, column))
        columns[name] = fault.map(
            float,
            list(map(_MISSING.get, column, column)) if "" in column else column,
            lambda row, _, column=column, name=name: (
                f"bad numeric value {column[row]!r} in column {name}"
            ),
        )
    if fault.error is not None:
        raise CsvParseError(fault.error, line=_line_of(text, fault.rows))

    dates = (np.array(list(map(date.toordinal, dates)), dtype=np.int64) - _EPOCH).astype(
        "datetime64[D]"
    )
    order = np.argsort(dates, kind="stable")
    columns = {name: np.array(values, dtype=np.float64)[order] for name, values in columns.items()}
    frame = TimeSeriesFrame(timestamps=dates[order], columns=columns, source=label)
    issues = validate_frame(frame).issues
    if issues:
        issues = tuple(sorted(issues, key=lambda it: (it.row, it.column, it.kind)))
        raise FrameValidationError(ValidationReport(row_count=len(rows), issues=issues))
    return frame


def load_ohlcv(source) -> TimeSeriesFrame:
    """Load a daily OHLCV CSV with the exact header date,open,high,low,close,volume."""
    return read_frame(source, required_header=OHLCV_HEADER)


def write_csv(frame: TimeSeriesFrame, destination=None) -> str | None:
    """Serialize a frame to CSV text that read_frame maps back to an equal frame.

    Floats are written with repr, which round-trips float64 exactly.  Writes
    to a path or text file object when given one, else returns the text.
    The text is csv.writer's, written one column at a time: only the header
    can need quoting, so only the header goes through csv.writer.
    """
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(("date",) + frame.column_names)
    columns = [np.datetime_as_string(frame.timestamps).tolist()]
    columns += [list(map(repr, frame.columns[name].tolist())) for name in frame.column_names]
    lines = [header.getvalue().removesuffix("\n"), *map(",".join, zip(*columns))]
    return _emit("\n".join(lines) + "\n", destination)


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
