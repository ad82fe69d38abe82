import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import depscope
from depscope.cli import EXIT_INVALID, EXIT_OK, build_parser, main
from depscope.frame import TimeSeriesFrame, load_ohlcv, read_frame
from depscope.measures import MEASURE_IDS, VALUE_RANGES
from depscope.search import (
    SearchSpace,
    TrialLog,
    TrialRecord,
    rank_hyperparameters,
    run_grid_search,
    write_trial_log_csv,
)
from depscope.verify import SyntheticSpec, generate_synthetic
from depscope.frame import write_csv


@pytest.fixture()
def ohlcv_csv(tmp_path):
    frame = generate_synthetic(
        SyntheticSpec(length=420, embedding="linear_lag", lag=30, strength=0.9, seed=21)
    )
    path = tmp_path / "prices.csv"
    write_csv(frame, path)
    return path


@pytest.fixture()
def features_csv(tmp_path, ohlcv_csv):
    path = tmp_path / "features.csv"
    assert main(["features", "--input", str(ohlcv_csv), "--output", str(path)]) == 0
    return path


def test_ingest_success(tmp_path, ohlcv_csv, capsys):
    out = tmp_path / "clean.csv"
    assert main(["ingest", "--input", str(ohlcv_csv), "--output", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "rows: 420" in printed
    assert load_ohlcv(out).column_names == ("open", "high", "low", "close", "volume")


def test_ingest_of_a_header_only_file_has_no_span(tmp_path, capsys):
    empty, out = tmp_path / "empty.csv", tmp_path / "clean.csv"
    empty.write_text("date,open,high,low,close,volume\n")
    assert main(["ingest", "--input", str(empty), "--output", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "rows: 0" in printed and "span: none" in printed
    assert out.read_text() == "date,open,high,low,close,volume\n"


def test_ingest_missing_file_is_io_error(tmp_path, capsys):
    assert main(["ingest", "--input", str(tmp_path / "absent.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_ingest_invalid_content_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,open,high,low,close,volume\n2020-01-02,1,2,0.5,abc,10\n")
    assert main(["ingest", "--input", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_utf8_is_named_with_its_reason_and_offset(tmp_path, capsys):
    data = bytearray(b"date,open,high,low,close,volume\n2020-01-02,10.0,11.0,9.5,10.5,1000\n")
    data[51] = 0xFF
    bad = tmp_path / "bad.csv"
    bad.write_bytes(data)
    assert main(["ingest", "--input", str(bad)]) == 2
    message = "'utf-8' codec can't decode byte 0xff in position 51: invalid start byte"
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_features_output_columns(features_csv):
    from depscope.frame import read_frame

    out = read_frame(features_csv)
    assert "f_rsi" in out.column_names
    assert "t_ret_c_hma_20" in out.column_names
    assert len(out) == 420 - 43


def test_features_name_the_column_and_row_an_indicator_refuses(tmp_path, capsys):
    """A zero-volume day: the volume-change column and the row of the zero are named, and no
    feature matrix is written."""
    frame = generate_synthetic(SyntheticSpec(length=400, seed=3))
    volume = frame.column("volume").copy()
    volume[200] = 0.0
    prices = tmp_path / "prices.csv"
    write_csv(TimeSeriesFrame(frame.timestamps, {**frame.columns, "volume": volume}), prices)
    out = tmp_path / "features.csv"
    assert main(["features", "--input", str(prices), "--output", str(out)]) == EXIT_INVALID
    message = "f_vol_pct: returns need a strictly positive series, got 0 at row 200"
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_measure_whole_series_csv(features_csv, capsys):
    rc = main(
        [
            "measure",
            "--input",
            str(features_csv),
            "--features",
            "f_ret_c_1",
            "--target",
            "t_ret_c_1",
            "--measures",
            "pearson,mi",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    header, *rows = [line for line in out.splitlines() if "," in line]
    assert header == "measure,value,sample_size,degenerate"
    assert rows[0].startswith("PC,")
    assert rows[1].startswith("MI,")


def test_measure_windowed_json_output(tmp_path, features_csv):
    out = tmp_path / "scores.json"
    rc = main(
        [
            "measure",
            "--input",
            str(features_csv),
            "--features",
            "f_vol_pct",
            "--target",
            "t_ret_c_1",
            "--measures",
            "dcor",
            "--window",
            "30",
            "--step",
            "30",
            "--format",
            "json",
            "--output",
            str(out),
        ]
    )
    assert rc == 0
    rows = json.loads(out.read_text())
    assert rows[0]["measure"] == "DC"
    assert not rows[0]["degenerate"]


def test_measure_window_agrees_with_grid_search(features_csv, capsys):
    """measure --window prints the median of the search's scored objectives."""
    rc = main(
        [
            "measure",
            "--input",
            str(features_csv),
            "--features",
            "f_vol_pct",
            "--target",
            "t_ret_c_1",
            "--measures",
            "mi,dcor,pc",
            "--window",
            "100",
            "--step",
            "25",
        ]
    )
    assert rc == 0
    printed = {
        line.split(",")[0]: float(line.split(",")[1])
        for line in capsys.readouterr().out.splitlines()[1:]
    }
    space = SearchSpace(
        window_sizes=(100,),
        feature_sets=(("f_vol_pct",),),
        targets=("t_ret_c_1",),
        measures=("MI", "DC", "PC"),
        step=25,
    )
    log_ = run_grid_search(read_frame(features_csv), space)
    for measure in space.measures:
        objectives = [
            r.objective for r in log_.records if r.measure == measure and not r.degenerate
        ]
        assert len(objectives) == 8
        assert printed[measure] == float(np.median(objectives))


def test_measure_unknown_name_is_config_error(features_csv, capsys):
    rc = main(
        [
            "measure",
            "--input",
            str(features_csv),
            "--features",
            "f_rsi",
            "--target",
            "t_ret_c_1",
            "--measures",
            "kendall",
        ]
    )
    assert rc == 2
    assert "unknown measure" in capsys.readouterr().err


CLI_NAMES = {
    "pc": "PC",
    "pearson": "PC",
    "sc": "SC",
    "spearman": "SC",
    "dc": "DC",
    "dcor": "DC",
    "mic": "MIC",
    "mi": "MI",
    "rsi": "RSI_SYNERGY",
    "rsi_synergy": "RSI_SYNERGY",
    "pps": "PPS",
    "ig": "IG",
}


@pytest.mark.parametrize("case", (str.lower, str.upper))
def test_measure_table_names_ranges_and_arity(features_csv, capsys, case):
    """Every CLI name reaches its id; pairwise measures refuse a two-column feature set."""
    assert MEASURE_IDS == ("PC", "SC", "DC", "MIC", "MI", "RSI_SYNERGY", "PPS", "IG")
    inf = float("inf")
    assert VALUE_RANGES == {
        "PC": (-1.0, 1.0),
        "SC": (-1.0, 1.0),
        "DC": (0.0, 1.0),
        "MIC": (0.0, 1.0),
        "MI": (0.0, inf),
        "RSI_SYNERGY": (-inf, inf),
        "PPS": (0.0, 1.0),
        "IG": (0.0, inf),
    }
    args = ["measure", "--input", str(features_csv), "--features", "f_ret_c_1,f_vol_pct"]
    args += ["--target", "t_ret_c_1", "--format", "json", "--measures"]
    assert main(args + [case(",".join(CLI_NAMES))]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert [r["measure"] for r in rows] == list(CLI_NAMES.values())
    for r in rows:
        pairwise = r["measure"] in ("PC", "SC", "MIC")
        assert r["degenerate"] is pairwise
        assert (r["reason"] == "pairwise measure on multivariate input") is pairwise
    assert main(args + [case("pearson,kendall")]) == EXIT_INVALID
    assert "unknown measure 'kendall'" in capsys.readouterr().err.lower()


def test_measure_all_degenerate_exits_three_but_writes(tmp_path, features_csv):
    out = tmp_path / "degenerate.csv"
    rc = main(
        [
            "measure",
            "--input",
            str(features_csv),
            "--features",
            "f_ret_c_1",
            "--target",
            "t_ret_c_1",
            "--measures",
            "mic",
            "--window",
            "6",
            "--step",
            "50",
            "--output",
            str(out),
        ]
    )
    assert rc == 3
    assert "true" in out.read_text()


def test_measure_window_says_why_no_anchor_scored(features_csv, capsys):
    """With no scorable anchor, the reason names the first anchor's."""
    rc = main(
        [
            "measure", "--input", str(features_csv), "--features", "f_ret_c_1",
            "--target", "t_ret_c_1", "--window", "6", "--measures", "mic", "--format", "json",
        ]
    )
    assert rc == 3
    (row,) = json.loads(capsys.readouterr().out)
    assert row["degenerate"] and row["value"] is None
    assert row["reason"] == "no scorable anchors: mic needs at least 8 observations, got 6"


def test_search_writes_three_artifacts(tmp_path, features_csv, capsys):
    out_dir = tmp_path / "run"
    rc = main(
        [
            "search",
            "--input",
            str(features_csv),
            "--output",
            str(out_dir),
            "--windows",
            "16,32",
            "--features",
            "f_ret_c_1,f_vol_pct+f_rsi",
            "--targets",
            "t_ret_c_1",
            "--measures",
            "mi,dcor",
            "--step",
            "40",
            "--min-samples",
            "8",
        ]
    )
    assert rc == 0
    assert (out_dir / "trials.csv").exists()
    assert (out_dir / "trials.json").exists()
    assert (out_dir / "parallel_coordinates.csv").exists()
    payload = json.loads((out_dir / "trials.json").read_text())
    feature_sets = payload["space"]["feature_sets"]
    assert ["f_vol_pct", "f_rsi"] in feature_sets
    assert "best feature set" in capsys.readouterr().out


def test_search_rejects_tiny_windows(tmp_path, features_csv, capsys):
    rc = main(
        [
            "search",
            "--input",
            str(features_csv),
            "--output",
            str(tmp_path / "x"),
            "--windows",
            "4",
        ]
    )
    assert rc == 2
    assert ">= 8" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", (0, -3))
def test_search_refuses_jobs_below_one(tmp_path, features_csv, capsys, jobs):
    out_dir = tmp_path / "x"
    rc = main(
        ["search", "--input", str(features_csv), "--output", str(out_dir), "--jobs", str(jobs)]
    )
    assert rc == 2
    assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out_dir.exists()
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        space = SearchSpace((100,), (("f_rsi",),), ("t_ret_c_1",), ("MI",))
        run_grid_search(read_frame(features_csv), space, jobs=jobs)


def test_verify_synthetic_passes_and_writes(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(
        [
            "verify",
            "--length",
            "900",
            "--lag",
            "45",
            "--strength",
            "1.0",
            "--step",
            "45",
            "--measures",
            "pc,mi",
            "--output",
            str(out),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "PASS PC" in printed and "PASS MI" in printed
    payload = json.loads(out.read_text())
    assert payload["all_passed"] is True


def test_verify_inconclusive_exits_three(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(
        [
            "verify",
            "--length",
            "400",
            "--lag",
            "6",
            "--measures",
            "mic",
            "--output",
            str(out),
        ]
    )
    assert rc == 3
    assert "INCONCLUSIVE" in capsys.readouterr().out
    assert json.loads(out.read_text())["any_inconclusive"] is True


def test_verify_file_mode_needs_both_frames(ohlcv_csv, capsys):
    rc = main(["verify", "--embedded", str(ohlcv_csv)])
    assert rc == 2
    assert "together" in capsys.readouterr().err


def test_report_rankings_and_scores(tmp_path, features_csv, capsys):
    out_dir = tmp_path / "run"
    main(
        [
            "search",
            "--input",
            str(features_csv),
            "--output",
            str(out_dir),
            "--windows",
            "8,16,24",
            "--features",
            "f_ret_c_1",
            "--targets",
            "t_ret_c_1",
            "--measures",
            "mi",
            "--step",
            "40",
            "--min-samples",
            "8",
        ]
    )
    capsys.readouterr()
    scores = {
        "8|f_ret_c_1|t_ret_c_1|MI": 0.1,
        "16|f_ret_c_1|t_ret_c_1|MI": 0.7,
        "24|f_ret_c_1|t_ret_c_1|MI": 0.3,
    }
    scores_path = tmp_path / "scores.json"
    scores_path.write_text(json.dumps(scores))
    rc = main(
        [
            "report",
            "--input",
            str(out_dir / "trials.csv"),
            "--group-by",
            "window_size",
            "--scores",
            str(scores_path),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "rank correlation" in printed
    assert "window_size,median_objective,trials" in printed


def test_report_refuses_scores_that_are_not_an_object_of_numbers(tmp_path, features_csv, capsys):
    out_dir = tmp_path / "run"
    main(
        [
            "search", "--input", str(features_csv), "--output", str(out_dir),
            "--windows", "8,16,24", "--features", "f_ret_c_1", "--targets", "t_ret_c_1",
            "--measures", "mi", "--step", "40", "--min-samples", "8",
        ]
    )
    capsys.readouterr()
    scores_path = tmp_path / "scores.json"
    key = "8|f_ret_c_1|t_ret_c_1|MI"
    for text in (
        "[1, 2, 3]", "0.5", "null", json.dumps({key: None}), json.dumps({key: "0.5"}),
        json.dumps({key: True}), json.dumps({key: float("nan")}), "{not json",
    ):
        scores_path.write_text(text)
        rc = main(
            ["report", "--input", str(out_dir / "trials.csv"), "--scores", str(scores_path)]
        )
        assert rc == 2, text
        assert str(scores_path) in capsys.readouterr().err


def test_report_refuses_scores_that_overflow_to_infinity(tmp_path, features_csv, capsys):
    """JSON reads 1e999 (or 400 digits) as inf; report refuses it as it refuses Infinity."""
    out_dir = tmp_path / "run"
    main(
        [
            "search", "--input", str(features_csv), "--output", str(out_dir),
            "--windows", "8,16,24", "--features", "f_ret_c_1", "--targets", "t_ret_c_1",
            "--measures", "mi", "--step", "40", "--min-samples", "8",
        ]
    )
    capsys.readouterr()
    scores_path = tmp_path / "scores.json"
    keys = [f"{w}|f_ret_c_1|t_ret_c_1|MI" for w in (8, 16, 24)]
    for big in ("1e999", "-1e999", "1" + "0" * 400):
        cells = (f'"{k}": {v}' for k, v in zip(keys, ("0.1", "0.7", big)))
        scores_path.write_text("{" + ", ".join(cells) + "}")
        rc = main(
            ["report", "--input", str(out_dir / "trials.csv"), "--scores", str(scores_path)]
        )
        captured = capsys.readouterr()
        assert rc == 2, big
        assert str(scores_path) in captured.err and "rank correlation" not in captured.out


def test_report_empty_after_filter_exits_three(tmp_path, features_csv, capsys):
    out_dir = tmp_path / "run"
    main(
        [
            "search",
            "--input",
            str(features_csv),
            "--output",
            str(out_dir),
            "--windows",
            "8",
            "--features",
            "f_ret_c_1",
            "--targets",
            "t_ret_c_1",
            "--measures",
            "mi",
            "--step",
            "40",
        ]
    )
    capsys.readouterr()
    rc = main(["report", "--input", str(out_dir / "trials.csv")])
    assert rc == 3
    assert "no non-degenerate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad_row, message",
    (
        ("1,8,f_rsi,t_ret_c_1,MI,2020-01-09,UP,0.6", "line 3: expected 9 cells, got 8"),
        ("1,8,f_rsi,t_ret_c_1,MI,2020-01-09,UP,0.6,false,0", "line 3: expected 9 cells, got 10"),
        (
            "1,8,f_rsi,t_ret_c_1,MI,2020-01-09,UP,0.6,maybe",
            "line 3: degenerate must be true or false, got 'maybe'",
        ),
    ),
)
def test_report_refuses_malformed_trial_rows(tmp_path, capsys, bad_row, message):
    header = "trial_id,window_size,features,target,measure,anchor_date,trend,objective,degenerate"
    good = "0,8,f_rsi,t_ret_c_1,MI,2020-01-08,UP,0.6,false"
    path = tmp_path / "trials.csv"
    path.write_text("\n".join([header, good, bad_row, good]) + "\n")
    assert main(["report", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "binning, message",
    (
        (["--bin-bp", "0"], "--bin-bp (target bin width in basis points, got 0) must be positive"),
        (
            ["--bin-bp", "-2.5"],
            "--bin-bp (target bin width in basis points, got -2.5) must be positive",
        ),
        (["--feature-bins", "0"], "--feature-bins (feature bin count, got 0) must be between 2 and 16"),
        (["--feature-bins", "1"], "--feature-bins (feature bin count, got 1) must be between 2 and 16"),
        (["--feature-bins", "17"], "--feature-bins (feature bin count, got 17) must be between 2 and 16"),
        (["--bin-bp", "inf"], "--bin-bp (target bin width in basis points, got inf) must be finite"),
    ),
)
def test_invalid_binning_is_a_config_error_on_every_command(
    tmp_path, features_csv, capsys, binning, message
):
    measure = [
        "measure", "--input", str(features_csv), "--features", "f_rsi",
        "--target", "t_ret_c_1", "--measures", "pc,mi",
    ]
    commands = (
        measure,
        measure + ["--window", "50", "--step", "50"],
        ["verify", "--length", "400", "--lag", "20", "--measures", "pc"],
        ["search", "--input", str(features_csv), "--output", str(tmp_path / "run"), "--windows", "50"],
    )
    for command in commands:
        capsys.readouterr()
        assert main(command + binning) == 2, command
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("value", (0, -2))
def test_counts_below_one_are_refused_by_flag(tmp_path, features_csv, capsys, value):
    measure = [
        "measure", "--input", str(features_csv), "--features", "f_rsi",
        "--target", "t_ret_c_1", "--measures", "pc",
    ]
    verify = ["verify", "--length", "400", "--lag", "20", "--measures", "pc"]
    search = ["search", "--input", str(features_csv), "--output", str(tmp_path / "run")]
    cases = (
        (measure, "--window"),
        (measure + ["--window", "50"], "--step"),
        (measure + ["--window", "50"], "--horizon"),
        (verify, "--window"),
        (verify, "--step"),
        (search + ["--windows", "50"], "--step"),
        (search + ["--windows", "50"], "--horizon"),
    )
    for command, flag in cases:
        capsys.readouterr()
        assert main(command + [flag, str(value)]) == 2, (command, flag)
        assert capsys.readouterr() == ("", f"error: {flag} must be >= 1, got {value}\n")
    assert not (tmp_path / "run").exists()


def test_min_samples_and_strength_are_refused_by_flag_before_any_work(tmp_path, capsys):
    """Bad --min-samples and --strength name their flag and value before the input is read:
    an input that does not exist is never opened."""
    search = ["search", "--input", str(tmp_path / "missing.csv"), "--output", str(tmp_path / "run")]
    verify = ["verify", "--length", "400", "--lag", "20", "--measures", "pc"]
    cases = (
        (search + ["--min-samples", "1"], "--min-samples must be >= 2, got 1"),
        (search + ["--min-samples", "-3"], "--min-samples must be >= 2, got -3"),
        (verify + ["--strength", "2"], "--strength must be within [0, 1], got 2"),
        (verify + ["--strength", "-0.5"], "--strength must be within [0, 1], got -0.5"),
        (verify + ["--strength", "nan"], "--strength must be within [0, 1], got nan"),
    )
    for command, message in cases:
        capsys.readouterr()
        assert main(command) == 2, command
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "run").exists()


def test_series_and_window_flags_are_refused_by_flag_before_any_work(tmp_path, capsys):
    """Bad --length, --lag and --windows name their flag and value, before a series is made
    or the input read: an input that does not exist is never opened."""
    missing = str(tmp_path / "missing.csv")
    cases = (
        (["verify", "--length", "400", "--lag", "0"],
         "--lag must be between 1 and --length // 4 = 100, got 0"),
        (["verify", "--length", "2000", "--lag", "600"],
         "--lag must be between 1 and --length // 4 = 500, got 600"),
        (["verify", "--length", "0"], "--length must be >= 300, got 0"),
        (["search", "--input", missing, "--output", str(tmp_path / "run"), "--windows", "50,4"],
         "--windows must be >= 8, got 4"),
        (["search", "--input", missing, "--output", str(tmp_path / "run"), "--windows", "100,abc"],
         "--windows must be comma-separated integers, got '100,abc'"),
        (["search", "--input", missing, "--output", str(tmp_path / "run"), "--windows", ","],
         "--windows must be comma-separated integers, got ','"),
        (["search", "--input", missing, "--output", str(tmp_path / "run"), "--windows", ""],
         "--windows must be comma-separated integers, got ''"),
    )
    for command, message in cases:
        capsys.readouterr()
        assert main(command + ["--measures", "pc"]) == 2, command
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "command, flag, message",
    (
        ("search", "--features", "at least one feature set is required"),
        ("search", "--targets", "expected a comma-separated list of names"),
        ("search", "--measures", "at least one measure is required"),
        ("measure", "--features", "expected a comma-separated list of names"),
        ("measure", "--measures", "at least one measure is required"),
    ),
)
def test_an_empty_list_is_refused_by_flag_before_any_work(tmp_path, capsys, command, flag, message):
    """An empty --features, --targets or --measures of search, or --features or --measures of
    measure, names its flag and value and exits 2 before the input is read (search would
    otherwise run its default axis)."""
    missing = str(tmp_path / "missing.csv")
    output = str(tmp_path / "run")
    required = {"measure": ["--features", "a", "--target", "y"], "search": []}[command]
    assert main([command, "--input", missing, "--output", output, *required, flag, ""]) == 2
    assert capsys.readouterr() == ("", f"error: {flag} '': {message}\n")
    assert not (tmp_path / "run").exists()


def test_report_csv_quotes_group_values(tmp_path):
    """Group values holding a comma, a quote or a line break are quoted as csv.writer quotes
    them, so csv.reader reads every row back as three cells holding what the ranking says."""
    names = ("a,b", 'q"d', "x\ny")
    records = tuple(
        TrialRecord(i, 8, (names[i % 3],), names[i % 3], "MI", "2021-01-09", "UP", i / 7, False)
        for i in range(9)
    )
    log = TrialLog(records, None, 0)
    trials = tmp_path / "trials.csv"
    write_trial_log_csv(log, trials)
    for group_by in ("features", "target"):
        out = tmp_path / f"{group_by}.csv"
        command = ["report", "--input", str(trials), "--output", str(out), "--group-by", group_by]
        assert main(command + ["--format", "csv"]) == 0
        with open(out, newline="", encoding="utf-8") as text:
            rows = list(csv.reader(text))
        ranking = rank_hyperparameters(log, group_by)
        assert rows == [[group_by, "median_objective", "trials"]] + [
            [g.value, repr(g.median_objective), str(g.trials)] for g in ranking.rows
        ]
        assert sorted(row[0] for row in rows[1:]) == sorted(names)


def test_argparse_errors_map_to_exit_two(capsys):
    assert main(["measure", "--input", "x.csv"]) == 2
    assert main(["unknown-command"]) == 2
    # Pairing is pointwise only; without the flag both commands would fail with I/O code 1.
    measure = ["measure", "--input", "x.csv", "--features", "a", "--target", "y"]
    search = ["search", "--input", "x.csv", "--output", "runs"]
    for args in (measure, search):
        capsys.readouterr()
        assert main(args + ["--pairing", "joint"]) == 2
        assert "unrecognized arguments: --pairing joint" in capsys.readouterr().err


def test_seed_is_an_option_of_search_and_verify_only(features_csv, capsys):
    args = ["measure", "--input", str(features_csv), "--features", "f_ret_c_1"]
    args += ["--target", "t_ret_c_1"]
    assert main(args) == EXIT_OK
    assert main(args + ["--seed", "1"]) == EXIT_INVALID
    assert "--seed" in capsys.readouterr().err
    parser = build_parser()
    assert parser.parse_args(["search", "--input", "a", "--output", "b", "--seed", "5"]).seed == 5
    assert parser.parse_args(["verify", "--seed", "3"]).seed == 3


def test_log_level_env_is_honored(monkeypatch, tmp_path, ohlcv_csv):
    monkeypatch.setenv("DEPSCOPE_LOG", "DEBUG")
    out = tmp_path / "clean.csv"
    assert main(["ingest", "--input", str(ohlcv_csv), "--output", str(out)]) == 0
    monkeypatch.setenv("DEPSCOPE_LOG", "not-a-level")
    assert main(["ingest", "--input", str(ohlcv_csv)]) == 0


def test_import_loads_no_scipy():
    """Every command is a fresh interpreter, so the package and its CLI import numpy alone,
    and no process pool: multiprocessing loads only when a search starts more than one worker."""
    src = str(Path(depscope.__file__).resolve().parents[1])
    code = (
        "import sys, depscope, depscope.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def test_the_package_runs_as_a_module():
    """python -m depscope is the depscope command, installed or not."""
    src = str(Path(depscope.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "depscope", "--help"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: ")
