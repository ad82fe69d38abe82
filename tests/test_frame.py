import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import depscope.frame
from depscope.frame import (
    OHLCV_HEADER,
    CsvParseError,
    FrameValidationError,
    TimeSeriesFrame,
    ValidationIssue,
    load_ohlcv,
    read_frame,
    validate_frame,
    write_csv,
)

from _oracles import (
    assert_same_frame,
    reference_chunked,
    reference_read_frame,
    reference_write_csv,
)

GOOD_CSV = """date,open,high,low,close,volume
2020-01-02,10.0,11.0,9.5,10.5,1000
2020-01-03,10.5,10.8,10.1,10.2,800
2020-01-06,10.2,10.9,10.0,10.7,1200
"""


def make_frame(n=5, start="2020-01-01"):
    ts = np.datetime64(start) + np.arange(n)
    base = np.linspace(10.0, 12.0, n)
    return TimeSeriesFrame(
        timestamps=ts,
        columns={
            "open": base,
            "high": base + 0.5,
            "low": base - 0.5,
            "close": base + 0.1,
            "volume": np.full(n, 1000.0),
        },
    )


def test_frame_basics():
    f = make_frame(4)
    assert len(f) == 4
    assert f.column_names == ("open", "high", "low", "close", "volume")
    assert f.column("close")[0] == pytest.approx(10.1)


def test_frame_rejects_ragged_columns():
    ts = np.datetime64("2020-01-01") + np.arange(3)
    with pytest.raises(ValueError):
        TimeSeriesFrame(timestamps=ts, columns={"a": np.zeros(3), "b": np.zeros(2)})


def test_frame_arrays_are_immutable():
    f = make_frame(3)
    with pytest.raises(ValueError):
        f.column("close")[0] = 99.0
    with pytest.raises(ValueError):
        f.timestamps[0] = np.datetime64("1999-01-01")


def test_frame_copies_input_arrays():
    ts = np.datetime64("2020-01-01") + np.arange(3)
    raw = np.array([1.0, 2.0, 3.0])
    f = TimeSeriesFrame(timestamps=ts, columns={"a": raw})
    raw[0] = 42.0
    assert f.column("a")[0] == 1.0


def test_unknown_column_message_lists_available():
    f = make_frame(3)
    with pytest.raises(KeyError, match="close"):
        f.column("klose")


def test_read_frame_round_trip():
    f = read_frame(io.StringIO(GOOD_CSV))
    assert len(f) == 3
    assert str(f.timestamps[0]) == "2020-01-02"
    assert f.column("volume")[2] == 1200.0
    again = read_frame(io.StringIO(write_csv(f)))
    assert_same_frame(f, again)


def test_read_frame_sorts_by_date():
    csv_text = (
        "date,a\n"
        "2021-03-05,3.0\n"
        "2021-03-01,1.0\n"
        "2021-03-03,2.0\n"
    )
    f = read_frame(io.StringIO(csv_text))
    assert list(f.column("a")) == [1.0, 2.0, 3.0]
    assert str(f.timestamps[0]) == "2021-03-01"


def test_load_ohlcv_requires_exact_header():
    bad = GOOD_CSV.replace("volume", "vol")
    with pytest.raises(CsvParseError, match="header"):
        load_ohlcv(io.StringIO(bad))
    assert load_ohlcv(io.StringIO(GOOD_CSV)).column_names == OHLCV_HEADER[1:]


def test_parse_errors_carry_line_numbers():
    missing_field = "date,a,b\n2020-01-02,1.0\n"
    with pytest.raises(CsvParseError, match="line 2"):
        read_frame(io.StringIO(missing_field))
    bad_number = "date,a\n2020-01-02,1.0\n2020-01-03,abc\n"
    with pytest.raises(CsvParseError, match="line 3"):
        read_frame(io.StringIO(bad_number))
    bad_date = "date,a\n2020-13-40,1.0\n"
    with pytest.raises(CsvParseError, match="line 2"):
        read_frame(io.StringIO(bad_date))


def test_parse_errors_name_the_physical_line():
    """A quoted line break in the header moves every row down a line."""
    text = 'date,"clo\nse"\n2020-01-01,1\n2020-01-02,x\n'
    message = "^line 4: bad numeric value 'x' in column clo\nse$"
    with pytest.raises(CsvParseError, match=message) as err:
        read_frame(io.StringIO(text))
    assert err.value.line == 4


def test_blank_rows_are_skipped():
    """As csv.DictReader and pandas do: a file that ends in a blank line reads."""
    text = "date,a\n2020-01-02,1.0\n\n2020-01-03,2.0\n\n"
    f = read_frame(io.StringIO(text))
    assert list(f.column("a")) == [1.0, 2.0]
    with pytest.raises(CsvParseError, match="^line 4: bad numeric value 'x' in column a$"):
        read_frame(io.StringIO("date,a\n2020-01-02,1.0\n\n2020-01-03,x\n"))


# A fault put into a row's cells, "date,v1,...,vk": each case of
# test_parse_errors_carry_line_numbers, then cells validate_frame refuses.
ROW_FAULTS = {
    "missing field": lambda cells, first: cells[:-1] if len(cells) > 1 else cells,
    "bad number": lambda cells, first: cells[:-1] + ["abc"],
    "bad date": lambda cells, first: ["2020-13-40"] + cells[1:],
    "padded bad number": lambda cells, first: cells[:1] + [" 1e5x "] + cells[2:],
    "empty cell": lambda cells, first: cells[:-1] + [" "],
    "infinite cell": lambda cells, first: cells[:1] + ["-inf"] + cells[2:],
    "duplicate date": lambda cells, first: first[:1] + cells[1:],
}


def frame_outcome(read, text):
    """The dates and column bits of the frame read, or the type and message of the error."""
    try:
        f = read(text)
    except (CsvParseError, FrameValidationError) as exc:
        where = exc.report if isinstance(exc, FrameValidationError) else exc.line
        return type(exc), str(exc), where
    return (
        f.timestamps.tolist(),
        {name: values.view(np.int64).tolist() for name, values in f.columns.items()},
    )


CHUNKS = (1, 2, 3, 7)  # chunk sizes the writer tests patch in; reader tests put faults there


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(
    days=st.lists(st.integers(0, 60), min_size=1, max_size=8, unique=True),
    width=st.integers(1, 3),
    data=st.data(),
    faults=st.lists(
        st.tuples(
            st.sampled_from(("first", "middle", "last", "edge-1", "edge")),
            st.sampled_from(sorted(ROW_FAULTS)),
        ),
        max_size=2,
    ),
    chunk=st.sampled_from(CHUNKS),
)
def test_read_frame_is_the_row_wise_reference(days, width, data, faults, chunk):
    """A written frame with up to two faulty rows, on either side of a writer's chunk edge (the
    last row of the first chunk, the first of the second): an equal frame or the same error and
    line."""
    ts = np.datetime64("2020-01-01") + np.array(days)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    columns = {
        name: data.draw(st.lists(finite, min_size=len(days), max_size=len(days)))
        for name in "abc"[:width]
    }
    lines = write_csv(TimeSeriesFrame(timestamps=ts, columns=columns)).splitlines()
    rows = [line.split(",") for line in lines[1:]]
    first = rows[0]
    edge = min(chunk, len(rows) - 1)
    places = {"first": 0, "middle": len(rows) // 2, "last": -1, "edge-1": edge - 1, "edge": edge}
    for where, fault in faults:  # two faults on one row make a row with two faulty cells
        at = places[where]
        rows[at] = ROW_FAULTS[fault](rows[at], first)
    text = "\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n"
    expected = frame_outcome(reference_read_frame, text)
    assert frame_outcome(lambda t: read_frame(io.StringIO(t)), text) == expected


def test_read_frame_is_the_reference_on_two_faults_in_one_row():
    """Every ordered pair of ROW_FAULTS in the middle row of three."""
    rows = [line.split(",") for line in GOOD_CSV.splitlines()]
    for first, second in itertools.product(ROW_FAULTS, repeat=2):
        bad = ROW_FAULTS[second](ROW_FAULTS[first](rows[2], rows[1]), rows[1])
        text = "\n".join(",".join(row) for row in rows[:2] + [bad] + rows[3:]) + "\n"
        expected = frame_outcome(reference_read_frame, text)
        got = frame_outcome(lambda t: read_frame(io.StringIO(t)), text)
        assert got == expected, (first, second)


def test_read_frame_is_the_reference_on_a_long_frame():
    """2,200 rows, parsed one at a time: a row with a missing field does not hide a bad number
    200 rows above it, faults on rows 1,024 and 1,501 are found, and a clean frame reads."""
    lines = write_csv(make_frame(2200)).splitlines()
    rows = [line.split(",") for line in lines[1:]]
    cases = (
        ({}, None),
        ({900: "missing field", 700: "bad number"},
         "line 702: bad numeric value 'abc' in column volume"),
        ({1023: "missing field"}, "line 1025: expected 6 fields, got 5"),
        ({1500: "bad date"}, "line 1502: bad ISO-8601 date '2020-13-40'"),
    )
    for faults, message in cases:
        bad = [ROW_FAULTS[faults[i]](row, rows[0]) if i in faults else row
               for i, row in enumerate(rows)]
        text = "\n".join([lines[0]] + [",".join(row) for row in bad]) + "\n"
        expected = frame_outcome(reference_read_frame, text)
        if message is None:
            assert len(expected[0]) == len(rows)
        else:
            assert expected[:2] == (CsvParseError, message)
        assert frame_outcome(lambda t: read_frame(io.StringIO(t)), text) == expected, faults


FRAME_FAULTS = {  # rows read_frame refuses: a bad cell, text the csv module cannot split,
    "bad": b"2020-01-07,x,1,1,1,1\n",  # invalid UTF-8
    "unsplit": b"2020-01-08,1,1\r2,1,1,1\n",
    "undecodable": b"2020-01-09,1,1,\xff,1,1\n",
}


def undecodable_outcome(read, source):
    """frame_outcome(read, source), with a UnicodeDecodeError as its type, reason and the
    position of the first bad byte."""
    try:
        return frame_outcome(read, source)
    except UnicodeDecodeError as exc:
        return type(exc), exc.reason, exc.start


@pytest.mark.parametrize(
    "faults", [p for k in (1, 2, 3) for p in itertools.permutations(FRAME_FAULTS, k)]
)
def test_read_frame_faults_raise_in_the_stream_order(tmp_path, faults):
    """The first faulty row raises, whether its fault is a bad cell, text the csv module cannot
    split or invalid UTF-8: faults in any order, on adjacent rows or apart, from a path and a
    text stream.  A path is decoded a block of io.DEFAULT_BUFFER_SIZE bytes at a time, so its
    invalid UTF-8 raises anywhere in a file of one block, and is not reached 300 rows below a
    fault: a bad row at line 2 raises before invalid UTF-8 or text the csv module cannot split
    that far below it."""
    header, good = GOOD_CSV.encode().splitlines(keepends=True)[:2]
    path = tmp_path / "faults.csv"
    for gap in (0, 1, 300):
        rows = [FRAME_FAULTS[fault] for fault in faults]  # the first at line 2
        data = header + (good * gap).join(rows) + good * gap
        path.write_bytes(data)
        if gap < 300:  # one block holds all of a short file: a path's reader reaches it all
            assert len(data) < io.DEFAULT_BUFFER_SIZE
            reached = data
        else:  # no block holds both the first row and a fault 300 rows below it
            assert len(good * (gap - 1)) > io.DEFAULT_BUFFER_SIZE
            reached = header + rows[0]
        sources = [(path, reached, True)]
        if b"\xff" not in data:
            sources.append((io.StringIO(data.decode()), data, False))
        for source, text, universal in sources:
            expected = undecodable_outcome(
                lambda d: reference_chunked(reference_read_frame, d, 1, universal), text
            )
            got = undecodable_outcome(read_frame, source)
            assert got == expected, (gap, type(source))


def test_read_frame_names_the_file_offset_of_invalid_utf8(tmp_path):
    """The position a path's UnicodeDecodeError names counts from the start of the file, not
    from the block of io.DEFAULT_BUFFER_SIZE bytes being decoded."""
    header, good = GOOD_CSV.encode().splitlines(keepends=True)[:2]
    data = bytearray(header + good * 400)
    data[12384] = 0xFF
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as err:
        read_frame(path)
    assert (err.value.start, err.value.reason) == (12384, "invalid start byte")
    assert "in position 12384" in str(err.value)


def test_duplicate_header_names_rejected():
    with pytest.raises(CsvParseError):
        read_frame(io.StringIO("date,a,a\n2020-01-02,1.0,2.0\n"))


def test_missing_cell_is_reported_not_repaired():
    text = "date,a\n2020-01-02,1.0\n2020-01-03,\n"
    with pytest.raises(FrameValidationError) as err:
        read_frame(io.StringIO(text))
    issues = err.value.report.issues
    assert len(issues) == 1
    assert issues[0].kind == "missing"
    assert issues[0].row == 1
    assert issues[0].column == "a"


def test_non_finite_cell_is_flagged():
    text = "date,a\n2020-01-02,1.0\n2020-01-03,inf\n"
    with pytest.raises(FrameValidationError) as err:
        read_frame(io.StringIO(text))
    assert err.value.report.issues[0].kind == "non_finite"


def test_duplicate_dates_flagged_on_the_later_row():
    text = "date,a\n2020-01-02,1.0\n2020-01-02,2.0\n2020-01-03,3.0\n"
    with pytest.raises(FrameValidationError) as err:
        read_frame(io.StringIO(text))
    issues = err.value.report.issues
    assert [i.kind for i in issues] == ["duplicate_time"]
    assert issues[0].row == 1


def test_validate_frame_flags_nan_and_order():
    ts = np.array(
        [np.datetime64("2020-01-03"), np.datetime64("2020-01-02")], dtype="datetime64[D]"
    )
    f = TimeSeriesFrame(timestamps=ts, columns={"a": np.array([1.0, np.nan])})
    report = validate_frame(f)
    kinds = sorted(i.kind for i in report.issues)
    assert kinds == ["missing", "non_monotonic_time"]
    assert not report.ok


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(days=st.lists(st.integers(0, 6), max_size=40))
def test_validate_frame_date_issues_are_the_plain_loop(days):
    """Few distinct days, so duplicates and reversals mix; issues match a pairwise loop in order."""
    ts = np.datetime64("2020-01-01") + np.array(days, dtype=np.int64)
    f = TimeSeriesFrame(timestamps=ts, columns={"a": np.zeros(len(days))})
    expected = []
    for i in range(1, len(days)):
        if days[i] == days[i - 1]:
            expected.append(ValidationIssue(i, "date", "duplicate_time"))
        elif days[i] < days[i - 1]:
            expected.append(ValidationIssue(i, "date", "non_monotonic_time"))
    assert list(validate_frame(f).issues) == expected


def test_write_csv_to_path(tmp_path):
    f = make_frame(3)
    target = tmp_path / "frame.csv"
    write_csv(f, target)
    assert_same_frame(load_ohlcv(target), f)


def test_write_csv_preserves_values_exactly():
    """repr-based serialization must survive a round trip bit for bit."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        ts = np.datetime64("2019-06-01") + np.arange(n)
        cols = {
            "a": rng.standard_normal(n) * rng.uniform(1e-8, 1e8),
            "b": rng.standard_normal(n),
        }
        f = TimeSeriesFrame(timestamps=ts, columns=cols)
        back = read_frame(io.StringIO(write_csv(f)))
        assert_same_frame(f, back)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    days=st.lists(st.integers(-800_000, 3_000_000), max_size=12),
    names=st.lists(st.sampled_from(("a", "b,c", 'q"d', "sp ace", "line\nbreak", "")),
                   min_size=1, max_size=3, unique=True),
    data=st.data(),
    chunk=st.sampled_from(CHUNKS),
)
def test_write_csv_is_the_row_wise_reference(days, names, data, chunk):
    """Column-at-a-time text is csv.writer's row by row, byte for byte, at every chunk size,
    returned or written to a stream: dates from year -221 to 10,183, every float (NaN,
    infinities, signed zeros, subnormals), header names that need quoting, and frames with no
    rows.  NaT dates and frames with no columns are refused (tests below)."""
    ts = np.array(days, dtype="datetime64[D]")
    columns = {
        name: data.draw(st.lists(st.floats(), min_size=len(days), max_size=len(days)))
        for name in names
    }
    frame = TimeSeriesFrame(timestamps=ts, columns=columns)
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(depscope.frame, "_CHUNK_ROWS", chunk)
        assert write_csv(frame) == reference_write_csv(frame)
        assert write_csv(frame, out) is None
    assert out.getvalue() == reference_write_csv(frame)


def test_write_csv_refuses_a_column_name_it_could_not_read_back(tmp_path):
    """csv.writer leaves a carriage return unquoted, so a header holding one would not read
    back: the name is refused before anything is written, to a path or a stream."""
    frame = read_frame(io.StringIO('date,"a\rb"\n2020-01-01,1.0\n'))
    assert frame.column_names == ("a\rb",)
    path = tmp_path / "out.csv"
    path.write_text("kept")
    stream = io.StringIO("kept")
    for destination in (None, path, stream):
        with pytest.raises(ValueError, match=r"^column name 'a\\rb' contains '\\r'"):
            write_csv(frame, destination)
    assert path.read_text() == stream.getvalue() == "kept"


def test_write_csv_refuses_a_column_named_date(tmp_path):
    """A column named "date" would write the header date,date, which read_frame refuses as a
    duplicate name: it is refused before anything is written, to a path or a stream."""
    frame = TimeSeriesFrame(np.datetime64("2020-01-01") + np.arange(2), {"date": [1.0, 2.0]})
    path = tmp_path / "out.csv"
    path.write_text("kept")
    stream = io.StringIO("kept")
    for destination in (None, path, stream):
        with pytest.raises(ValueError, match="^column name 'date' is the date column's"):
            write_csv(frame, destination)
    assert path.read_text() == stream.getvalue() == "kept"


@pytest.mark.parametrize(
    "frame, message",
    (
        (TimeSeriesFrame(np.datetime64("2020-01-01") + np.arange(2), {}),
         "^a frame with no columns writes a header read_frame refuses$"),
        (TimeSeriesFrame(np.array(["2020-01-01", "NaT", "2020-01-03", "NaT"], "datetime64[D]"),
                         {"a": [1.0, 2.0, 3.0, 4.0]}),
         "^row 1 has date NaT, so the CSV could not be read back$"),
    ),
    ids=("no-columns", "nat"),
)
def test_write_csv_refuses_a_frame_read_frame_would_refuse(tmp_path, frame, message):
    """A frame with no columns would write the header "date", and a NaT date the cell "NaT":
    read_frame refuses both, so write_csv refuses the frame, naming the first NaT row, before
    anything is written, to a path or a stream."""
    path = tmp_path / "out.csv"
    path.write_text("kept")
    stream = io.StringIO("kept")
    for destination in (None, path, stream):
        with pytest.raises(ValueError, match=message):
            write_csv(frame, destination)
    assert path.read_text() == stream.getvalue() == "kept"


def test_validate_frame_reports_a_nat_date_as_missing():
    """A NaT date compares False with every date, so it is reported on its own, in row order."""
    ts = np.array(["2020-01-01", "NaT", "2020-01-03", "2020-01-03", "NaT"], "datetime64[D]")
    frame = TimeSeriesFrame(ts, {"a": np.zeros(5)})
    assert validate_frame(frame).issues == (
        ValidationIssue(1, "date", "missing"),
        ValidationIssue(3, "date", "duplicate_time"),
        ValidationIssue(4, "date", "missing"),
    )


def test_validate_frame_compares_a_date_with_the_last_one_above_a_nat():
    """A NaT between two dates hides neither a reversal nor a duplicate across it."""
    for last, kind in (("2020-01-01", "non_monotonic_time"), ("2020-01-03", "duplicate_time")):
        ts = np.array(["2020-01-03", "NaT", last], "datetime64[D]")
        assert validate_frame(TimeSeriesFrame(ts, {"a": np.zeros(3)})).issues == (
            ValidationIssue(1, "date", "missing"),
            ValidationIssue(2, "date", kind),
        )


# Pieces of column names: the date column's name, and the text a CSV header quotes or splits on.
NAME_PIECES = ("date", "", ",", '"', "\r", "\n", " ", "a")


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    names=st.lists(
        st.lists(st.sampled_from(NAME_PIECES), max_size=3).map("".join),
        min_size=1, max_size=3, unique=True,
    ),
    days=st.lists(st.integers(-700_000, 2_900_000), max_size=5, unique=True).map(sorted),
    data=st.data(),
)
def test_every_frame_write_csv_accepts_reads_back_equal(names, days, data):
    """A sound frame (increasing dates, finite values, at least one column) that write_csv
    writes reads back equal through read_frame; write_csv refuses only a name holding a
    carriage return and the name "date"."""
    columns = {
        name: data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                 min_size=len(days), max_size=len(days)))
        for name in names
    }
    frame = TimeSeriesFrame(np.array(days, dtype="datetime64[D]"), columns)
    try:
        text = write_csv(frame)
    except ValueError:
        assert any("\r" in name or name == "date" for name in names)
        return
    assert_same_frame(read_frame(io.StringIO(text)), frame)


def test_read_frame_reports_what_validate_frame_reports():
    """Read back from CSV, a frame gets validate_frame's issues, in (row, column, kind) order."""
    ts = np.array(["2020-01-01", "2020-01-02", "2020-01-02", "2020-01-03"], dtype="datetime64[D]")
    columns = {"a": [1.0, np.nan, 2.0, np.inf], "b": [np.nan, 1.0, -np.inf, 0.0]}
    f = TimeSeriesFrame(timestamps=ts, columns=columns)
    with pytest.raises(FrameValidationError) as err:
        read_frame(io.StringIO(write_csv(f)))
    expected = sorted(validate_frame(f).issues, key=lambda i: (i.row, i.column, i.kind))
    assert list(err.value.report.issues) == expected
    assert {i.kind for i in expected} == {"duplicate_time", "missing", "non_finite"}
