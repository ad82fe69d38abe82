"""Timestamped OHLCV frames: strict CSV ingestion, validation, serialization.

A frame is an immutable bundle of a date axis plus equally long float
columns.  Loaders reject bad input instead of repairing it; the only
normalization applied is sorting rows into ascending date order.  CSV
tables and the other artifacts stream in chunks of _CHUNK_ROWS rows: a
reader, of a path or a text stream, holds one chunk of rows and no whole
text, a writer one chunk's text.  Each chunk is parsed or written one
column at a time; a reader raises a chunk's faults before reading the
next; _first_fault parses a faulty chunk again row by row to find the first.
"""
from __future__ import annotations

import csv
import io
import os
import shutil
import tempfile
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from datetime import date
from itertools import islice, repeat
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np

OHLCV_HEADER = ("date", "open", "high", "low", "close", "volume")
_MISSING = {"": "nan"}  # an empty numeric cell is parsed as NaN: "missing"
_EPOCH = date(1970, 1, 1).toordinal()  # day 0 of datetime64[D]
# Rows that a reader parses, or a writer formats, at a time: what either holds is bounded by
# one chunk, not by the rows of the artifact.
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
    for i in (np.flatnonzero(ts[1:] <= ts[:-1]) + 1).tolist():
        kind = "duplicate_time" if ts[i] == ts[i - 1] else "non_monotonic_time"
        issues.append(ValidationIssue(i, "date", kind))
    for name, arr in frame.columns.items():
        for i in np.flatnonzero(np.isnan(arr)):
            issues.append(ValidationIssue(int(i), name, "missing"))
        for i in np.flatnonzero(np.isinf(arr)):
            issues.append(ValidationIssue(int(i), name, "non_finite"))
    return ValidationReport(row_count=len(frame), issues=tuple(issues))


@contextmanager
def _table(source) -> Iterator[tuple[list[str] | None, Iterator[tuple[list, tuple]], str]]:
    """The first row of the CSV text in a path or a text stream (None when there is none),
    chunks of the non-blank rows below it (_row_chunks), and a label for the source.

    A path is read as UTF-8 with universal newlines, as Path.read_text reads
    it; a text stream is iterated as it is; bytes and binary streams raise
    TypeError before anything is read.  Faults raise in the order they are
    read: invalid UTF-8 (UnicodeDecodeError), or text the csv module cannot
    split into a row, such as a bare carriage return in an unquoted cell
    (CsvParseError naming its line), as the chunk holding it is read, and a
    chunk's faulty rows (in the with block) before the next chunk is read.
    """
    if isinstance(source, (bytes, bytearray, io.RawIOBase, io.BufferedIOBase)):
        raise TypeError(f"expected a path or a text stream, got {type(source).__name__}")
    path = isinstance(source, (str, Path))
    label = str(source if path else getattr(source, "name", "<stream>"))
    with open(source, encoding="utf-8") if path else nullcontext(source) as lines:
        reader = csv.reader(lines)
        try:
            yield next(reader, None), _row_chunks(reader), label
        except csv.Error as exc:
            raise CsvParseError(str(exc), line=reader.line_num) from None
        except UnicodeDecodeError:  # its position counts from the block being decoded
            if path:
                Path(source).read_bytes().decode("utf-8")  # raises at the file's own offset
            raise


def _row_chunks(reader) -> Iterator[tuple[list, tuple]]:
    """The reader's non-blank rows in chunks of at most _CHUNK_ROWS: the rows, and the
    physical line each ends on."""
    # zip reads each row's line_num after the row, from the line the row ends on.
    rows = filter(itemgetter(0), zip(reader, map(attrgetter("line_num"), repeat(reader))))
    for chunk in _chunks(rows):
        cells, ends = zip(*chunk)
        yield list(cells), ends


def _chunks(items: Iterable) -> Iterator[list]:
    """Lists of _CHUNK_ROWS consecutive items, the last one shorter."""
    items = iter(items)
    while chunk := list(islice(items, _CHUNK_ROWS)):
        yield chunk


def _first_fault(parse: Callable, rows: list, ends: tuple, *args):
    """parse(rows, ends, *args); when that raises ValueError, each row is parsed alone, in order,
    and the first to raise raises: the fault a row-by-row reader stops at."""
    try:
        return parse(rows, ends, *args)
    except ValueError as exc:
        fault = exc  # a row's fault raises outside this block, so it chains no chunk fault
    for row, end in zip(rows, ends):
        parse([row], (end,), *args)
    raise fault  # not reached while each check looks at its own row alone


def read_frame(source, required_header: tuple[str, ...] | None = None) -> TimeSeriesFrame:
    """Parse a date-indexed CSV, from a path or a text stream, into a validated frame.

    The first column must be named "date" and hold ISO-8601 dates; every
    other column is parsed as float64.  Blank rows are skipped.  Rows are
    sorted into ascending date order (the one permitted normalization).  A
    frame that fails validate_frame, because of empty (or NaN) cells,
    infinite cells or duplicate dates, raises FrameValidationError with
    validate_frame's issues sorted by row, column and kind.  A parse error
    names the physical line its row ends on.  Each chunk of rows is parsed
    a column at a time, and a faulty one again row by row, so the error
    raised is the first faulty row's first faulty cell.  Invalid UTF-8, or
    text the csv module cannot split, raises as its chunk is read (_table).
    """
    with _table(source) as (header, chunks, label):
        header = _check_header(header, required_header)
        parts = [_first_fault(_parse_rows, *chunk, header) for chunk in chunks]

    rows = sum(len(days) for days, _ in parts)
    days = np.concatenate([np.empty(0, dtype=np.int64)] + [days for days, _ in parts])
    dates = (days - _EPOCH).astype("datetime64[D]")
    order = np.argsort(dates, kind="stable")
    columns = {
        name: np.concatenate([np.empty(0)] + [values[i] for _, values in parts])[order]
        for i, name in enumerate(header[1:])
    }
    frame = TimeSeriesFrame(timestamps=dates[order], columns=columns, source=label)
    issues = validate_frame(frame).issues
    if issues:
        issues = tuple(sorted(issues, key=lambda it: (it.row, it.column, it.kind)))
        raise FrameValidationError(ValidationReport(row_count=rows, issues=issues))
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


def _parse_rows(
    rows: list, ends: tuple, header: tuple[str, ...]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """One chunk of read_frame's rows: each row's date as a day number, and each column.

    A fault raises naming the chunk's first row, so only that of a chunk of
    one row names its own (_first_fault).
    """
    width = len(header)
    if any(map(width.__ne__, map(len, rows))):
        raise CsvParseError(f"expected {width} fields, got {len(rows[0])}", line=ends[0])
    cells = list(zip(*rows))
    try:
        dates = list(map(date.fromisoformat, map(str.strip, cells[0])))
    except ValueError:
        raise CsvParseError(f"bad ISO-8601 date {cells[0][0]!r}", line=ends[0]) from None
    columns = []
    for name, column in zip(header[1:], cells[1:]):
        column = list(map(str.strip, column))
        texts = map(_MISSING.get, column, column) if "" in column else column
        try:
            columns.append(list(map(float, texts)))
        except ValueError:
            raise CsvParseError(
                f"bad numeric value {column[0]!r} in column {name}", line=ends[0]
            ) from None
    days = np.fromiter(map(date.toordinal, dates), dtype=np.int64, count=len(dates))
    return days, [np.array(values, dtype=np.float64) for values in columns]


def load_ohlcv(source) -> TimeSeriesFrame:
    """Load a daily OHLCV CSV with the exact header date,open,high,low,close,volume."""
    return read_frame(source, required_header=OHLCV_HEADER)


def write_csv(frame: TimeSeriesFrame, destination=None) -> str | None:
    """Serialize a frame to CSV text that read_frame maps back to an equal frame.

    Floats are written with repr, which round-trips float64 exactly.  Writes
    to a path or text file object when given one, else returns the text.
    The text is csv.writer's, written a chunk of rows at a time, each one
    column at a time: only the header can need quoting, so only the header
    goes through csv.writer.
    """
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(("date",) + frame.column_names)
    return _emit(_frame_parts(frame, header.getvalue()), destination)


def _frame_parts(frame: TimeSeriesFrame, header: str) -> Iterator[str]:
    """The header, then the text of each chunk of rows."""
    yield header
    for start in range(0, len(frame), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        columns = [np.datetime_as_string(frame.timestamps[rows]).tolist()]
        columns += [list(map(repr, values[rows].tolist())) for values in frame.columns.values()]
        yield "\n".join(map(",".join, zip(*columns))) + "\n"


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
