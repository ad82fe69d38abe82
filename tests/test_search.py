import io
import json
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from depscope.frame import TimeSeriesFrame
from depscope.measures import (
    MEASURE_IDS,
    JointHistogram,
    equal_frequency_symbols,
    mutual_information,
)
from depscope.search import (
    TRIAL_CSV_HEADER,
    SearchSpace,
    TrialLog,
    TrialRecord,
    config_key,
    correlate_measure_with_scores,
    default_search_space,
    evaluate_pairs,
    label_trend,
    rank_hyperparameters,
    read_trial_log_csv,
    run_grid_search,
    write_parallel_coordinates,
    write_trial_log_csv,
    write_trial_log_json,
)
from depscope.shaping import discretize

from _oracles import pinned_information_gain


def small_frame(n=20, seed=0):
    rng = np.random.default_rng(seed)
    ts = np.datetime64("2021-01-01") + np.arange(n)
    close = 100.0 * np.exp(np.cumsum(rng.standard_normal(n) * 0.01))
    return TimeSeriesFrame(
        timestamps=ts,
        columns={
            "close": close,
            "a": rng.standard_normal(n),
            "b": rng.standard_normal(n),
            "y": rng.standard_normal(n),
        },
    )


def tiny_space(**overrides):
    base = dict(
        window_sizes=(8, 9),
        feature_sets=(("a",), ("b",)),
        targets=("y",),
        measures=("PC",),
        horizon=4,
        step=3,
        min_samples=2,
    )
    base.update(overrides)
    return SearchSpace(**base)


def test_search_space_validation():
    with pytest.raises(ValueError):
        tiny_space(window_sizes=())
    with pytest.raises(ValueError):
        tiny_space(window_sizes=(7,))
    with pytest.raises(ValueError):
        tiny_space(feature_sets=((),))
    with pytest.raises(ValueError):
        tiny_space(measures=("XX",))
    with pytest.raises(ValueError):
        tiny_space(step=0)
    with pytest.raises(ValueError):
        tiny_space(bin_width=0.0)
    with pytest.raises(ValueError):
        tiny_space(feature_bins=17)
    with pytest.raises(ValueError):
        tiny_space(min_samples=1)
    with pytest.raises(ValueError):
        tiny_space(horizon=0)


def test_default_space_shape():
    space = default_search_space()
    assert space.window_sizes == (50, 100, 150, 200)
    assert len(space.feature_sets) == 9
    assert all(len(fs) == 1 for fs in space.feature_sets)
    assert space.targets == ("t_ret_c_1", "t_ret_c_hma_5", "t_ret_c_hma_20")
    assert space.measures == ("MI", "DC", "MIC")
    assert space.step == 100
    assert space.bin_width == 0.001
    assert space.horizon is None


def test_label_trend_thresholds():
    close = np.concatenate([np.full(20, 100.0), [103.0, 97.0, 100.5]])
    assert label_trend(close, 20) == "UP"
    assert label_trend(close, 21) == "DOWN"
    assert label_trend(close, 22) == "NEUTRAL"
    with pytest.raises(ValueError):
        label_trend(close, 23)


def test_label_trend_warns_when_history_is_short(caplog):
    close = np.linspace(100.0, 110.0, 30)
    with caplog.at_level(logging.WARNING, logger="depscope.search"):
        assert label_trend(close, 5) == "NEUTRAL"
    assert any("fewer than" in rec.message for rec in caplog.records)


def test_evaluate_pairs_routes_each_measure():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(60)
    y = 0.5 * x + rng.standard_normal(60) * 0.1
    for measure in ("PC", "SC", "DC", "MIC", "MI", "IG", "PPS", "RSI_SYNERGY"):
        r = evaluate_pairs(measure, x, y)
        assert r.measure_id == measure
        assert not r.degenerate, (measure, r.params)


def test_evaluate_pairs_arity_rules():
    rng = np.random.default_rng(2)
    xs = rng.standard_normal((40, 2))
    y = rng.standard_normal(40)
    for measure in ("PC", "SC", "MIC"):
        r = evaluate_pairs(measure, xs, y)
        assert r.degenerate
        assert "multivariate" in r.params["reason"]
    assert not evaluate_pairs("DC", xs, y).degenerate
    assert not evaluate_pairs("MI", xs, y).degenerate
    for measure in MEASURE_IDS:
        for ys in (rng.standard_normal((40, 3)), y[:, None]):
            with pytest.raises(ValueError, match="vector"):
                evaluate_pairs(measure, xs, ys)


def test_evaluate_pairs_synergy_capacity():
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((30, 4))
    y = rng.standard_normal(30)
    r = evaluate_pairs("RSI_SYNERGY", xs, y)
    assert r.degenerate
    assert "capacity" in r.params["reason"]


def test_evaluate_pairs_flags_non_finite_input():
    rng = np.random.default_rng(5)
    xs = rng.standard_normal((40, 1))
    y = rng.standard_normal(40)
    for bad in (np.nan, np.inf, -np.inf):
        x_bad = xs.copy()
        x_bad[7, 0] = bad
        y_bad = y.copy()
        y_bad[0] = bad
        for measure in MEASURE_IDS:
            for pair in ((x_bad, y), (xs, y_bad)):
                r = evaluate_pairs(measure, *pair)
                assert r.degenerate and np.isnan(r.value)
                assert r.params["reason"] == "non-finite input"


def test_evaluate_pairs_flags_overflow_instead_of_scoring_it():
    x = np.random.default_rng(6).standard_normal(200)
    for measure in ("PC", "SC"):
        assert evaluate_pairs(measure, x, x).value == 1.0
    r = evaluate_pairs("PC", x * 1e200, x * 1e200)
    assert r.degenerate and "not finite" in r.params["reason"]
    # Fixed-width target bins of 0.001 on values near 1e17 exceed int64.
    v = np.linspace(1.0, 1e17, 200)
    for measure in ("MI", "IG", "RSI_SYNERGY"):
        r = evaluate_pairs(measure, v, v)
        assert r.degenerate and "int64" in r.params["reason"]
    # Squared distances of 1e-170-scale points underflow: cdist is all zeros.
    tiny = np.arange(200) * 1e-170
    r = evaluate_pairs("DC", tiny, np.arange(200.0))
    assert r.degenerate and "underflow" in r.params["reason"]
    # Each distance variance is ~1e-200, so their product underflows to zero.
    rng = np.random.default_rng(7)
    r = evaluate_pairs("DC", rng.standard_normal(100) * 1e-100, rng.standard_normal(100) * 1e-100)
    assert r.degenerate and "underflow" in r.params["reason"]
    r = evaluate_pairs("DC", np.full(200, 1e-170), np.arange(200.0))
    assert r.params["reason"] == "zero distance variance"
    r = evaluate_pairs("PC", tiny, np.arange(200.0))
    assert r.degenerate and "not finite and positive" in r.params["reason"]


def test_evaluate_pairs_flags_pps_targets_whose_squared_sums_overflow():
    x = np.random.default_rng(6).standard_normal(200)
    assert evaluate_pairs("PPS", x, x).value > 0.9
    r = evaluate_pairs("PPS", x, x * 1e200)
    assert r.degenerate and "overflow" in r.params["reason"]


def _window_symbols(xs, ys, feature_bins, bin_width):
    """The symbols evaluate_pairs bins a window into, as plain ints and tuples."""
    cols = [equal_frequency_symbols(xs[:, j], feature_bins).tolist() for j in range(xs.shape[1])]
    x = cols[0] if len(cols) == 1 else list(zip(*cols))
    return cols, x, discretize(ys, bin_width).tolist()


@pytest.mark.parametrize("feature_bins", (2, 8, 12, 16))
def test_discrete_measures_match_the_exact_tables_bit_for_bit(feature_bins):
    """MI, IG and RSI on search windows equal the exact-table references with ==."""
    rng = np.random.default_rng(feature_bins)
    for trial in range(36):
        n = int(rng.integers(20, 160))
        xs = rng.standard_normal((n, 1 + trial % 3))
        ys = 0.0013 * rng.integers(-6, 7, n)
        cols, x, y = _window_symbols(xs, ys, feature_bins, 0.001)

        def mi(symbols):
            return mutual_information(JointHistogram.from_symbols(symbols, y)).value

        def score(measure):
            return evaluate_pairs(measure, xs, ys, feature_bins=feature_bins).value

        assert score("MI") == mi(x)
        assert score("IG") == pinned_information_gain(y, x)
        i_single = 0.0
        for col in cols:
            i_single += mi(col)
        assert score("RSI_SYNERGY") == mi(list(zip(*cols))) - i_single


def test_evaluate_pairs_turns_value_errors_into_degenerate_records():
    rng = np.random.default_rng(4)
    r = evaluate_pairs("MIC", rng.standard_normal(6), rng.standard_normal(6))
    assert r.degenerate
    assert "at least 8" in r.params["reason"]


def test_evaluate_pairs_unknown_measure_still_raises():
    with pytest.raises(ValueError):
        evaluate_pairs("XYZ", np.zeros(10), np.zeros(10))


def test_grid_search_record_grid():
    frame = small_frame(20)
    log = run_grid_search(frame, tiny_space(), seed=42)
    assert len(log.records) == 12  # 2 windows x 2 feature sets x 3 anchors
    assert [r.trial_id for r in log.records] == list(range(12))
    assert log.records[0].window_size == 8
    assert log.records[0].features == ("a",)
    assert log.records[-1].window_size == 9
    assert log.records[-1].features == ("b",)
    for r in log.records:
        assert r.target == "y"
        assert r.measure == "PC"
        assert r.trend in ("UP", "DOWN", "NEUTRAL")


def test_grid_search_rejects_unknown_columns_up_front():
    frame = small_frame(20)
    with pytest.raises(KeyError):
        run_grid_search(frame, tiny_space(feature_sets=(("nope",),)), seed=42)


def test_grid_search_min_samples_guard():
    frame = small_frame(30)
    log = run_grid_search(frame, tiny_space(min_samples=100), seed=42)
    assert log.records
    assert all(r.degenerate for r in log.records)
    assert all(np.isnan(r.objective) for r in log.records)


def test_grid_search_parallel_matches_serial():
    frame = small_frame(40, seed=5)
    space = tiny_space(measures=("PC", "MI"))
    serial = run_grid_search(frame, space, seed=42, jobs=1)
    parallel = run_grid_search(frame, space, seed=42, jobs=2)
    assert serial.records == parallel.records


def test_trial_log_csv_round_trip():
    frame = small_frame(24, seed=6)
    log = run_grid_search(frame, tiny_space(), seed=42)
    text = write_trial_log_csv(log)
    assert text.splitlines()[0] == ",".join(TRIAL_CSV_HEADER)
    back = read_trial_log_csv_from_text(text)
    assert back.records == log.records


def read_trial_log_csv_from_text(text):
    import io

    return read_trial_log_csv(io.StringIO(text))


def test_trial_log_csv_file_round_trip(tmp_path):
    frame = small_frame(24, seed=7)
    log = run_grid_search(frame, tiny_space(), seed=42)
    path = tmp_path / "trials.csv"
    write_trial_log_csv(log, path)
    assert read_trial_log_csv(path).records == log.records


def test_trial_log_json_layout():
    frame = small_frame(24, seed=8)
    log = run_grid_search(frame, tiny_space(), seed=42)
    payload = json.loads(write_trial_log_json(log))
    assert payload["seed"] == 42
    assert payload["space"]["window_sizes"] == [8, 9]
    assert "created_utc" in payload and "elapsed_s" in payload
    assert len(payload["trials"]) == len(log.records)
    first = payload["trials"][0]
    assert set(first) == {
        "trial_id",
        "window_size",
        "features",
        "target",
        "measure",
        "anchor_date",
        "trend",
        "objective",
        "degenerate",
    }


def test_degenerate_objectives_serialize_as_null_and_nan():
    frame = small_frame(30, seed=9)
    log = run_grid_search(frame, tiny_space(min_samples=100), seed=42)
    payload = json.loads(write_trial_log_json(log))
    assert all(t["objective"] is None for t in payload["trials"])
    text = write_trial_log_csv(log)
    assert ",nan,true" in text.splitlines()[1]


def test_parallel_coordinates_drops_degenerate_rows():
    frame = small_frame(40, seed=10)
    space = tiny_space(window_sizes=(8, 32), min_samples=10)
    log = run_grid_search(frame, space, seed=42)
    # window 8 yields 8 pairs, below min_samples; window 32 yields 32
    text = write_parallel_coordinates(log)
    lines = text.splitlines()
    assert lines[0] == "window_size,features,target,measure,objective"
    assert all(line.split(",")[0] == "32" for line in lines[1:])
    scored = [r for r in log.records if not r.degenerate]
    assert len(lines) - 1 == len(scored)


GOLDEN_LOG = TrialLog(
    records=(
        TrialRecord(0, 50, ("f_rsi",), "t_ret_c_1", "MI", "2000-02-21", "UP", 0.1, False),
        TrialRecord(1, 100, ("a", "b"), "t_ret_c_5", "DC", "2000-03-01", "NEUTRAL", 1 / 3, False),
        TrialRecord(2, 100, ("a",), "y", "PC", "2000-03-02", "DOWN", math.nan, True),
    ),
    space=None,
    seed=7,
)

GOLDEN_TRIALS_CSV = """\
trial_id,window_size,features,target,measure,anchor_date,trend,objective,degenerate
0,50,f_rsi,t_ret_c_1,MI,2000-02-21,UP,0.1,false
1,100,a|b,t_ret_c_5,DC,2000-03-01,NEUTRAL,0.3333333333333333,false
2,100,a,y,PC,2000-03-02,DOWN,nan,true
"""

GOLDEN_PARALLEL_COORDINATES = """\
window_size,features,target,measure,objective
50,f_rsi,t_ret_c_1,MI,0.1
100,a|b,t_ret_c_5,DC,0.3333333333333333
"""

GOLDEN_TRIALS_JSON = """\
{
  "space": null,
  "seed": 7,
  "created_utc": "",
  "elapsed_s": 0.0,
  "trials": [
    {
      "trial_id": 0,
      "window_size": 50,
      "features": [
        "f_rsi"
      ],
      "target": "t_ret_c_1",
      "measure": "MI",
      "anchor_date": "2000-02-21",
      "trend": "UP",
      "objective": 0.1,
      "degenerate": false
    },
    {
      "trial_id": 1,
      "window_size": 100,
      "features": [
        "a",
        "b"
      ],
      "target": "t_ret_c_5",
      "measure": "DC",
      "anchor_date": "2000-03-01",
      "trend": "NEUTRAL",
      "objective": 0.3333333333333333,
      "degenerate": false
    },
    {
      "trial_id": 2,
      "window_size": 100,
      "features": [
        "a"
      ],
      "target": "y",
      "measure": "PC",
      "anchor_date": "2000-03-02",
      "trend": "DOWN",
      "objective": null,
      "degenerate": true
    }
  ]
}
"""


def test_trial_writers_produce_the_golden_bytes():
    assert write_trial_log_csv(GOLDEN_LOG) == GOLDEN_TRIALS_CSV
    assert write_parallel_coordinates(GOLDEN_LOG) == GOLDEN_PARALLEL_COORDINATES
    assert write_trial_log_json(GOLDEN_LOG) == GOLDEN_TRIALS_JSON
    back = read_trial_log_csv(io.StringIO(GOLDEN_TRIALS_CSV)).records
    assert back[:2] == GOLDEN_LOG.records[:2]
    assert math.isnan(back[2].objective)
    assert replace(back[2], objective=0.0) == replace(GOLDEN_LOG.records[2], objective=0.0)
    ranked = rank_hyperparameters(GOLDEN_LOG, "features").rows
    assert [(g.value, g.trials) for g in ranked] == [("a|b", 1), ("f_rsi", 1)]


def test_rank_hyperparameters_orders_by_median():
    frame = small_frame(60, seed=11)
    space = tiny_space(window_sizes=(10, 20), measures=("MI",), min_samples=2)
    log = run_grid_search(frame, space, seed=42)
    report = rank_hyperparameters(log, "features")
    assert {g.value for g in report.rows} == {"a", "b"}
    assert report.rows[0].median_objective >= report.rows[-1].median_objective
    assert report.best is report.rows[0]
    assert report.notice == ""
    by_hand = {}
    for r in log.records:
        by_hand.setdefault("|".join(r.features), []).append(r.objective)
    for g in report.rows:
        assert g.median_objective == pytest.approx(float(np.median(by_hand[g.value])))


def test_rank_hyperparameters_trend_filter_and_errors():
    frame = small_frame(60, seed=12)
    log = run_grid_search(frame, tiny_space(), seed=42)
    filtered = rank_hyperparameters(log, "window_size", trend="UP")
    kept = [r for r in log.records if r.trend == "UP" and not r.degenerate]
    assert sum(g.trials for g in filtered.rows) == len(kept)
    with pytest.raises(ValueError):
        rank_hyperparameters(log, "anchor_date")
    with pytest.raises(ValueError):
        rank_hyperparameters(log, "features", trend="SIDEWAYS")


def test_rank_hyperparameters_empty_selection_notice():
    frame = small_frame(30, seed=13)
    log = run_grid_search(frame, tiny_space(min_samples=100), seed=42)
    report = rank_hyperparameters(log, "measure")
    assert report.rows == ()
    assert "no non-degenerate" in report.notice
    assert report.best is None


def test_config_key_format():
    assert config_key(50, ("a", "b"), "y", "MI") == "50|a+b|y|MI"


def test_correlation_with_external_scores_is_exact_on_monotone_maps():
    frame = small_frame(80, seed=14)
    space = tiny_space(window_sizes=(10, 20, 30), measures=("MI",), min_samples=2)
    log = run_grid_search(frame, space, seed=42)
    medians = {}
    for r in log.records:
        key = config_key(r.window_size, r.features, r.target, r.measure)
        medians.setdefault(key, []).append(r.objective)
    ranked = {k: float(np.median(v)) for k, v in medians.items()}
    agree = {k: 10.0 * v + 3.0 for k, v in ranked.items()}
    disagree = {k: -2.0 * v for k, v in ranked.items()}
    assert correlate_measure_with_scores(log, agree).value == 1.0
    assert correlate_measure_with_scores(log, disagree).value == -1.0


def test_correlation_needs_three_overlapping_configs():
    frame = small_frame(40, seed=15)
    log = run_grid_search(frame, tiny_space(window_sizes=(8,)), seed=42)
    key = config_key(8, ("a",), "y", "PC")
    with pytest.raises(ValueError, match="at least 3"):
        correlate_measure_with_scores(log, {key: 1.0})
