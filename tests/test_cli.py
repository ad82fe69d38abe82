import json

import numpy as np
import pytest

from depscope.cli import EXIT_INVALID, EXIT_OK, build_parser, main
from depscope.frame import load_ohlcv, read_frame
from depscope.search import SearchSpace, run_grid_search
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


def test_ingest_missing_file_is_io_error(tmp_path, capsys):
    assert main(["ingest", "--input", str(tmp_path / "absent.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_ingest_invalid_content_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,open,high,low,close,volume\n2020-01-02,1,2,0.5,abc,10\n")
    assert main(["ingest", "--input", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_features_output_columns(features_csv):
    from depscope.frame import read_frame

    out = read_frame(features_csv)
    assert "f_rsi" in out.column_names
    assert "t_ret_c_hma_20" in out.column_names
    assert len(out) == 420 - 43


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
