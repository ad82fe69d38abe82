"""Timestamped OHLCV frames: strict CSV ingestion, validation, serialization.

A frame is an immutable bundle of a date axis plus equally long float
columns.  Loaders reject bad input instead of repairing it; the only
normalization applied is sorting rows into ascending date order.  A
reader, of a path or a text stream, parses one row at a time as it reads
it and holds no whole text, so the first faulty row raises.

Every CSV table depscope writes (a frame, the trial log, the parallel
coordinates, the measure and report tables) is written by _write_table:
a header, then chunks of text columns, of at most _CHUNK_ROWS rows each.
It quotes one column at a time as csv.writer quotes a cell, so its text is
csv.writer's, and holds one chunk's text.
"""
from __future__ import annotations

import csv
import io
import os
import shutil
import tempfile
from array import array
from collections.abc import Iterable, Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from datetime import date
from itertools import chain, islice
from pathlib import Path

import numpy as np

OHLCV_HEADER = ("date", "open", "high", "low", "close", "volume")
_EPOCH = date(1970, 1, 1).toordinal()  # day 0 of datetime64[D]
# Rows that a writer formats at a time: what it holds is bounded by one chunk, not by the
# rows of the artifact.
_CHUNK_ROWS = 1024


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
    nat = np.isnat(ts)  # a NaT date compares False with every date, so it is checked first
    # Each date is compared with the last non-NaT date above it (-1: none is).
    above = np.r_[-1, np.maximum.accumulate(np.where(nat, -1, np.arange(len(ts))))][:-1]
    for i in np.flatnonzero(nat | ((above >= 0) & (ts <= ts[above]))).tolist():
        same = ts[i] == ts[above[i]]
        kind = "missing" if nat[i] else "duplicate_time" if same else "non_monotonic_time"
        issues.append(ValidationIssue(i, "date", kind))
    for name, arr in frame.columns.items():
        for i in np.flatnonzero(np.isnan(arr)):
            issues.append(ValidationIssue(int(i), name, "missing"))
        for i in np.flatnonzero(np.isinf(arr)):
            issues.append(ValidationIssue(int(i), name, "non_finite"))
    return ValidationReport(row_count=len(frame), issues=tuple(issues))


@contextmanager
def _table(source) -> Iterator[tuple[list[str] | None, Iterator[list[str]], str]]:
    """The first row of the CSV text in a path or a text stream (None when there is none),
    the csv reader of the rows below it, and a label for the source.

    A path is read as UTF-8 with universal newlines, as Path.read_text reads
    it; a text stream is iterated as it is; bytes and binary streams raise
    TypeError before anything is read.  A blank row reads as an empty list.
    The reader's line_num after a row is the physical line the row ends on.
    Invalid UTF-8 (UnicodeDecodeError), or text the csv module cannot split
    into a row, such as a bare carriage return in an unquoted cell
    (CsvParseError naming its line), raises as the row holding it is read.
    """
    if isinstance(source, (bytes, bytearray, io.RawIOBase, io.BufferedIOBase)):
        raise TypeError(f"expected a path or a text stream, got {type(source).__name__}")
    path = isinstance(source, (str, Path))
    label = str(source if path else getattr(source, "name", "<stream>"))
    with open(source, encoding="utf-8") if path else nullcontext(source) as lines:
        reader = csv.reader(lines)
        try:
            yield next(reader, None), reader, label
        except csv.Error as exc:
            raise CsvParseError(str(exc), line=reader.line_num) from None
        except UnicodeDecodeError:  # its position counts from the block being decoded
            if path:
                Path(source).read_bytes().decode("utf-8")  # raises at the file's own offset
            raise


def _chunks(items: Iterable) -> Iterator[list]:
    """Lists of _CHUNK_ROWS consecutive items, the last one shorter."""
    items = iter(items)
    while chunk := list(islice(items, _CHUNK_ROWS)):
        yield chunk


def read_frame(source, required_header: tuple[str, ...] | None = None) -> TimeSeriesFrame:
    """Parse a date-indexed CSV, from a path or a text stream, into a validated frame.

    The first column must be named "date" and hold ISO-8601 dates; every
    other column is parsed as float64.  Blank rows are skipped.  Rows are
    sorted into ascending date order (the one permitted normalization).  A
    frame that fails validate_frame, because of empty (or NaN) cells,
    infinite cells or duplicate dates, raises FrameValidationError with
    validate_frame's issues sorted by row, column and kind.  Rows are parsed
    one at a time as they are read, so the first faulty row raises, naming
    the physical line it ends on and its first faulty cell.
    """
    with _table(source) as (header, reader, label):
        header = _check_header(header, required_header)
        width, fields = len(header), len(header) - 1
        days = array("q")  # each row's date as a day number
        values = array("d")  # the rows' numbers, one row after another
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                raise CsvParseError(
                    f"expected {width} fields, got {len(row)}", line=reader.line_num
                )
            try:
                day = date.fromisoformat(row[0].strip()).toordinal()
            except ValueError:
                raise CsvParseError(f"bad ISO-8601 date {row[0]!r}", line=reader.line_num) from None
            try:
                values.extend(map(float, row[1:]))  # float ignores the spaces around a number
            except ValueError:
                del values[len(days) * fields :]  # the row's cells read before the fault
                values.extend(_numbers(row, header, reader.line_num))
            days.append(day)

    dates = (np.frombuffer(days, dtype=np.int64) - _EPOCH).astype("datetime64[D]")
    order = np.argsort(dates, kind="stable")
    columns = np.frombuffer(values).reshape(len(days), fields)[order].T
    frame = TimeSeriesFrame(
        timestamps=dates[order], columns=dict(zip(header[1:], columns)), source=label
    )
    issues = validate_frame(frame).issues
    if issues:
        issues = tuple(sorted(issues, key=lambda it: (it.row, it.column, it.kind)))
        raise FrameValidationError(ValidationReport(row_count=len(days), issues=issues))
    return frame


def _check_header(header: list[str] | None, required: tuple[str, ...] | None) -> tuple[str, ...]:
    if header is None:
        raise CsvParseError("empty input", line=1)
    header = tuple(header)
    if required is not None and header != required:
        raise CsvParseError(
            f"header must be exactly {','.join(required)!r}, got {','.join(header)!r}", line=1
        )
    if not header or header[0] != "date" or len(header) < 2:
        raise CsvParseError("header must start with 'date' and name at least one column", line=1)
    if len(set(header)) != len(header):
        raise CsvParseError("duplicate column names in header", line=1)
    return header


def _numbers(row: list[str], header: tuple[str, ...], line: int) -> Iterator[float]:
    """The numbers of a row's cells after its date, an empty cell as NaN ("missing"); the first
    cell that is not a number raises, naming its column and the row's line."""
    for name, cell in zip(header[1:], map(str.strip, row[1:])):
        try:
            yield float(cell or "nan")
        except ValueError:
            raise CsvParseError(f"bad numeric value {cell!r} in column {name}", line=line) from None


def load_ohlcv(source) -> TimeSeriesFrame:
    """Load a daily OHLCV CSV with the exact header date,open,high,low,close,volume."""
    return read_frame(source, required_header=OHLCV_HEADER)


def write_csv(frame: TimeSeriesFrame, destination=None) -> str | None:
    """Serialize a frame to CSV text that read_frame maps back to an equal frame.

    Floats are written with repr, which round-trips float64 exactly.  Writes
    to a path or text file object when given one, else returns the text,
    through _write_table.  A frame that could not be read back raises
    ValueError before anything is written: one with no columns, a NaT date
    (naming its row), a column name holding a carriage return, or a column
    named "date".
    """
    if not frame.columns:
        raise ValueError("a frame with no columns writes a header read_frame refuses")
    nat = np.flatnonzero(np.isnat(frame.timestamps))
    if nat.size:
        raise ValueError(f"row {nat[0]} has date NaT, so the CSV could not be read back")
    for name in frame.column_names:
        if "\r" in name:
            why = "contains '\\r', which csv.writer leaves unquoted"
        elif name == "date":
            why = "is the date column's, which the header names once"
        else:
            continue
        raise ValueError(f"column name {name!r} {why}, so the CSV could not be read back")
    chunks = (
        [np.datetime_as_string(frame.timestamps[start : start + _CHUNK_ROWS]).tolist()]
        + [list(map(repr, values[start : start + _CHUNK_ROWS].tolist()))
           for values in frame.columns.values()]
        for start in range(0, len(frame), _CHUNK_ROWS)
    )
    return _write_table(("date",) + frame.column_names, chunks, destination)


def _write_table(header: tuple[str, ...], chunks: Iterable[list], destination) -> str | None:
    """Write the header, then each chunk of text columns, as the rows csv.writer writes (with
    lineterminator "\n"); return or write the text as _emit does, so a chunk that raises
    leaves destination as it was.  Every row has at least two cells."""
    parts = map(_csv_rows, chain(([[name] for name in header],), chunks))
    return _emit(parts, destination)


def _csv_rows(columns: list) -> str:
    """The rows of equally long text columns, one column at a time."""
    rows = list(map(",".join, zip(*map(_csv_column, columns))))
    return "\n".join(rows) + "\n" if rows else ""


def _csv_column(cells: list[str]) -> list[str]:
    """The cells as csv.writer writes them, quoting each distinct cell that needs it once."""
    text = "".join(cells)
    if not any(char in text for char in ',"\r\n'):  # no other character makes csv.writer quote
        return cells
    written = {cell: _csv_cell(cell) for cell in set(cells)}
    return list(map(written.__getitem__, cells))


def _csv_cell(cell: str) -> str:
    """A cell as csv.writer writes it in a row of several cells."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((cell, ""))
    return buf.getvalue()[: -len(",\n")]


def _emit(parts: Iterable[str], destination) -> str | None:
    """Return the parts joined when destination is None, else write them to a path (as UTF-8)
    or to a text file object and return None.

    The parts are spooled, and copied to the destination only once the last
    is made, so a writer that raises leaves the destination as it was.  The
    spool holds io.DEFAULT_BUFFER_SIZE bytes in memory and the rest in a
    temporary file, so no writer holds more than one part.
    """
    if destination is None:
        return "".join(parts)
    # surrogatepass lets any str through the spool unchanged; the destination encodes it.
    with tempfile.SpooledTemporaryFile(
        io.DEFAULT_BUFFER_SIZE, "w+", encoding="utf-8", errors="surrogatepass", newline=""
    ) as spool:
        for part in parts:
            spool.write(part)  # a write, unlike writelines, moves a full spool to its file
        spool.seek(0)
        if isinstance(destination, (str, os.PathLike)):
            with open(destination, "w", encoding="utf-8") as out:
                shutil.copyfileobj(spool, out)
        else:
            shutil.copyfileobj(spool, destination)
    return None
