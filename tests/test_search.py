import io
import json
import logging
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depscope import search
from depscope.cli import main
from depscope.frame import TimeSeriesFrame, write_csv
from depscope.measures import (
    MEASURE_IDS,
    JointHistogram,
    distance_correlation,
    equal_frequency_symbols,
    mutual_information,
    pearson,
    pps,
)
from depscope.measures.information import _mic_grid, _terms
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
    scan_window,
    write_parallel_coordinates,
    write_trial_log_csv,
    write_trial_log_json,
)
from depscope.shaping import discretize, pair_targets

from _oracles import (
    brute_mic_scores,
    pinned_information_gain,
    reference_equal_frequency,
    reference_grid_search,
)


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


@pytest.mark.parametrize(
    "axis, name, message",
    (
        ("feature_sets", "a|b", "feature name 'a|b' contains '|', which the trial log joins"),
        ("feature_sets", "a+b", "feature name 'a+b' contains '+', which config_key joins"),
        ("targets", "a|b", "target name 'a|b' contains '|', which config_key separates"),
    ),
)
def test_names_the_trial_log_cannot_round_trip_are_refused(axis, name, message):
    value = ((name,),) if axis == "feature_sets" else (name,)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        tiny_space(**{axis: value})


def test_a_column_named_with_a_bar_is_refused_before_any_trial(tmp_path, capsys):
    frame = small_frame(40, seed=3)
    frame = TimeSeriesFrame(frame.timestamps, {**frame.columns, "a|b": frame.column("a")})
    source = tmp_path / "frame.csv"
    write_csv(frame, source)
    out = tmp_path / "run"
    argv = ["search", "--input", str(source), "--output", str(out), "--windows", "8"]
    for flags in (["--features", "a|b", "--targets", "y"], ["--features", "a", "--targets", "a|b"]):
        assert main(argv + flags) == 2
        assert "contains '|'" in capsys.readouterr().err
        assert not out.exists()


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


def test_correlations_of_fewer_than_two_rows_say_so():
    """SC and DC score cached ranks and distances, yet refuse n = 0 and n = 1 with PC's reason
    and no warning."""
    frame = small_frame(30)
    for n in (0, 1):
        x = np.arange(float(n))
        for measure in ("PC", "SC", "DC"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                r = evaluate_pairs(measure, x, x)
            assert r.degenerate and r.params["reason"] == "need at least 2 observations"
    _, scores = scan_window(
        frame, 1, (("a",),), ("y",), ("PC", "SC", "DC"),
        step=5, horizon=1, bin_width=0.001, feature_bins=8,
    )
    assert scores
    for r in (r for results in scores for r in results):
        assert r.degenerate and r.params["reason"] == "need at least 2 observations"


def test_information_measures_of_an_empty_window_say_so():
    """MI, IG and RSI_SYNERGY refuse n = 0 with a reason instead of raising."""
    for measure in ("MI", "IG", "RSI_SYNERGY"):
        r = evaluate_pairs(measure, np.zeros(0), np.zeros(0))
        assert r.degenerate and r.params["reason"] == "empty symbol sequences"


def test_evaluate_pairs_flags_overflow_instead_of_scoring_it():
    x = np.random.default_rng(6).standard_normal(200)
    for measure in ("PC", "SC"):
        assert evaluate_pairs(measure, x, x).value == 1.0
    r = evaluate_pairs("PC", x * 1e200, x * 1e200)
    assert r.degenerate and "not finite" in r.params["reason"]
    # Each sum of squares is near 1e202, so their product overflows; no warning is raised.
    big = np.linspace(-1, 1, 200) * 1e100, np.cos(np.arange(200)) * 1e100
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            pearson(*big)
        r = evaluate_pairs("PC", *big)
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
    # Distances near 1e155 square past float64, so centring would subtract inf from inf;
    # near 1e80 each distance variance is finite but their product is not.
    for xs, ys in ((x * 1e154, x), (x * 1e80, x * 1e80)):
        r = evaluate_pairs("DC", xs, ys)
        assert r.degenerate and r.params["reason"] == "distances overflow"
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


@pytest.mark.parametrize(
    "binning, message",
    (
        ({"bin_width": 0.0}, "bin_width must be positive"),
        ({"bin_width": -0.001}, "bin_width must be positive"),
        ({"bin_width": math.nan}, "bin_width must be positive"),
        ({"feature_bins": -3}, "feature_bins must be between 2 and 16"),
        ({"feature_bins": 1}, "feature_bins must be between 2 and 16"),
        ({"feature_bins": 17}, "feature_bins must be between 2 and 16"),
    ),
)
def test_every_scoring_path_refuses_invalid_binning(binning, message):
    """evaluate_pairs and scan_window raise as SearchSpace does, for every measure."""
    x = np.random.default_rng(12).standard_normal(60)
    for measure in MEASURE_IDS:
        with pytest.raises(ValueError, match=message):
            evaluate_pairs(measure, x, x, **binning)
    with pytest.raises(ValueError, match=message):
        tiny_space(**binning)
    settings = {"bin_width": 0.001, "feature_bins": 8, **binning}
    for min_samples in (1, 100):  # also when no window is long enough to score
        with pytest.raises(ValueError, match=message):
            scan_window(
                small_frame(30), 8, (("a",),), ("y",), ("PC",),
                step=3, horizon=4, min_samples=min_samples, **settings,
            )


def test_per_n_tables_are_shared_and_read_only():
    for n in (8, 100, 400):
        assert _terms(n) is _terms(n)
        assert _mic_grid(n) is _mic_grid(n)
        grid = _mic_grid(n)
        for table in (_terms(n), grid.gx, grid.gy, grid.divisors):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1.0


def _assert_scan_is_evaluate_pairs(frame, window, feature_sets, targets, measures, horizon):
    """Every scan_window result is evaluate_pairs' on its own window: value and reason."""
    anchors, scores = scan_window(
        frame, window, feature_sets, targets, measures,
        step=9, horizon=horizon, bin_width=0.001, feature_bins=8,
    )
    assert len(anchors) > 1
    for a, results in zip(anchors.tolist(), scores):
        expected = []
        for fs in feature_sets:
            xs = np.column_stack([frame.column(c)[a - window + 1 : a + 1] for c in fs])
            for t in targets:
                ys = pair_targets(frame.column(t)[a + 1 : a + 1 + horizon], window)
                expected += [evaluate_pairs(m, xs, ys) for m in measures]
        assert [(repr(r.value), r.params.get("reason")) for r in results] == [
            (repr(r.value), r.params.get("reason")) for r in expected
        ]
    return [r for results in scores for r in results]


def test_scan_window_derivations_that_raise_flag_every_trial_that_reads_them():
    """A side's derivation that raises is flagged with its reason in each trial; the rest score."""
    frame = _reference_frame()
    columns = {name: frame.column(name) for name in frame.column_names}
    columns["big"] = columns["a"] * 1e154  # distances square past float64
    columns["huge"] = np.linspace(1.0, 1e17, len(frame))  # fixed-width bins past int64
    frame = TimeSeriesFrame(timestamps=frame.timestamps, columns=columns)

    # Window 6 is below MIC's 8 observations: every MIC trial reads the same error.
    results = _assert_scan_is_evaluate_pairs(
        frame, 6, (("a",), ("c",)), ("y", "z"), ("MIC", "PC", "MI"), horizon=6
    )
    mic = [r for r in results if r.measure_id == "MIC"]
    assert {r.params["reason"] for r in mic} == {"mic needs at least 8 observations, got 6"}
    for measure in ("PC", "MI"):
        assert any(not r.degenerate for r in results if r.measure_id == measure)

    results = _assert_scan_is_evaluate_pairs(
        frame, 40, (("big",), ("a",), ("big", "c")), ("y", "huge"), ("DC", "MI", "IG"), horizon=7
    )
    reasons = {r.params.get("reason") for r in results}
    assert reasons >= {"distances overflow"}
    assert any("int64" in str(reason) for reason in reasons)
    assert any(not r.degenerate for r in results if r.measure_id == "DC")
    assert any(not r.degenerate for r in results if r.measure_id == "MI")


INFORMATION_MEASURES = ("MI", "IG", "RSI_SYNERGY", "MIC")
COLUMN_KINDS = ("continuous", "ties", "signed zeros", "constant")
PLANTED_REASONS = {
    "nan": "non-finite input",
    "int64": "values span more bins than int64 symbols can index",
    "float64": "values span more than float64",
}


def _drawn_column(kind, n, rng, scale=1.0):
    values = scale * rng.standard_normal(n)
    if kind == "ties":
        return np.round(values * 2.0 / scale) * scale / 2.0
    if kind == "signed zeros":  # mostly -0.0 and 0.0
        return np.round(values * 0.3 / scale) * scale
    if kind == "constant":
        return np.full(n, values[0])
    return values


@st.composite
def block_scans(draw):
    """A scan of 1-5 disjoint windows of 8-400 rows and the anchors per block to score it in.

    One anchor each may carry a NaN target, a target past int64 bins, and
    feature windows whose span overflows float64.
    """
    window = draw(st.sampled_from((8, 9, 16, 31, 64, 100, 200, 400)))
    horizon = draw(st.sampled_from((window, max(1, window // 3), window + 7)))
    count = draw(st.integers(1, 5))
    # Blocks of one anchor, of two (ragged when the count is odd), or of every anchor.
    per_block = draw(st.sampled_from((1, 2, count)))
    split = draw(st.integers(0, count))
    feature_bins = draw(st.integers(2, 16))
    sets = draw(
        st.lists(
            st.sampled_from(
                (("a",), ("b",), ("c",), ("a", "b"), ("c", "a"), ("b", "c"), ("a", "b", "c"))
            ),
            min_size=1, max_size=3, unique=True,
        )
    )
    kinds = [draw(st.sampled_from(COLUMN_KINDS)) for _ in range(4)]
    free = list(draw(st.permutations(range(count))))
    plants = {reason: free.pop() for reason in PLANTED_REASONS if free and draw(st.booleans())}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    step = max(window, horizon)  # windows and horizons of two anchors never share a row
    n = window + horizon + (count - 1) * step
    columns = {name: _drawn_column(kind, n, rng) for name, kind in zip("abc", kinds)}
    columns["y"] = _drawn_column(kinds[3], n, rng, scale=0.01)
    for reason, i in plants.items():
        start = i * step  # the anchor's first window row; its first target row is start + window
        if reason == "nan":
            columns["y"][start + window] = np.nan
        elif reason == "int64":
            columns["y"][start + window] = 1e17  # 1e20 bins of 0.001
        else:
            for name in "abc":
                columns[name][start : start + 2] = (1.7e308, -1.7e308)
    frame = TimeSeriesFrame(np.datetime64("2021-01-01") + np.arange(n), columns)
    scan = dict(
        window=window, horizon=horizon, step=step, feature_bins=feature_bins, sets=tuple(sets)
    )
    return frame, scan, per_block, split, plants


def _expected_information(frame, scan, anchor, features, measure):
    """A scored trial's value (and MIC's grid) from the exact-table references."""
    window, horizon, bins = scan["window"], scan["horizon"], scan["feature_bins"]
    xs = [frame.column(c)[anchor - window + 1 : anchor + 1] for c in features]
    ys = pair_targets(frame.column("y")[anchor + 1 : anchor + 1 + horizon], window)
    if measure == "MIC":
        scores = brute_mic_scores(list(xs[0]), list(ys))
        best = max(m for _, m in scores)
        if not best > 0.0:
            return 0.0, None
        return min(best, 1.0), next(shape for shape, m in scores if m == best)
    cols = [reference_equal_frequency(x, bins).tolist() for x in xs]
    x = cols[0] if len(cols) == 1 else list(zip(*cols))
    y = discretize(ys, 0.001).tolist()

    def mi(symbols):
        return mutual_information(JointHistogram.from_symbols(symbols, y)).value

    if measure == "MI":
        return mi(x), None
    if measure == "IG":
        return pinned_information_gain(y, x), None
    i_single = 0.0
    for col in cols:
        i_single += mi(col)
    return mi(list(zip(*cols))) - i_single, None


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(drawn=block_scans())
def test_block_boundaries_change_no_information_result(drawn):
    """MI, IG, RSI_SYNERGY and MIC equal the exact-table references at every anchor, whatever
    the anchors per block and however the anchors are sliced, and each planted refusal
    flags its own anchor and no other."""
    frame, scan, per_block, split, plants = drawn
    window = scan["window"]

    def run(block=slice(None)):
        return scan_window(
            frame, window, scan["sets"], ("y",), INFORMATION_MEASURES, step=scan["step"],
            horizon=scan["horizon"], bin_width=0.001, feature_bins=scan["feature_bins"],
            block=block,
        )

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_BLOCK_CELLS", per_block * window)
        anchors, scores = run()
        _, head = run(slice(0, split))
        _, tail = run(slice(split, None))
    assert [[repr(r) for r in rs] for rs in head + tail] == [[repr(r) for r in rs] for rs in scores]

    flagged = {reason: set() for reason in PLANTED_REASONS.values()}
    for i, (anchor, results) in enumerate(zip(anchors.tolist(), scores)):
        trials = [(fs, m) for fs in scan["sets"] for m in INFORMATION_MEASURES]
        for (features, measure), r in zip(trials, results):
            if r.degenerate:
                flagged.setdefault(r.params["reason"], set()).add(i)
            if plants.get("nan") == i:
                expected = "non-finite input"
            elif measure == "MIC" and len(features) > 1:
                expected = "pairwise measure on multivariate input"
            elif plants.get("int64") == i and measure != "MIC":
                expected = PLANTED_REASONS["int64"]
            elif plants.get("float64") == i:
                expected = PLANTED_REASONS["float64"]
            else:
                value, grid = _expected_information(frame, scan, anchor, features, measure)
                assert not r.degenerate, (features, measure, r.params)
                assert r.value == value, (features, measure)
                assert r.params.get("grid") == grid
                continue
            assert r.degenerate and r.params["reason"] == expected
    for kind, reason in PLANTED_REASONS.items():
        assert flagged[reason] == ({plants[kind]} if kind in plants else set())


def test_scan_memory_does_not_grow_with_the_anchors_it_scans():
    """Anchors are scored a bounded block at a time: at step 1 on a few thousand rows the
    scan's transient memory stays a few MiB (one block of every anchor takes tens)."""
    rng = np.random.default_rng(21)
    n = 2500
    columns = {name: rng.standard_normal(n) for name in "abc"}
    columns["y"] = 0.01 * rng.standard_normal(n)
    frame = TimeSeriesFrame(np.datetime64("2001-01-01") + np.arange(n), columns)
    tracemalloc.start()
    try:
        anchors, scores = scan_window(
            frame, 100, (("a", "b", "c"), ("a",)), ("y",), INFORMATION_MEASURES,
            step=1, horizon=100, bin_width=0.001, feature_bins=8,
        )
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(anchors) == 2301
    assert not any(r.degenerate for r in scores[0] if r.measure_id != "MIC")
    assert peak - retained < 3 * 2**20


def test_evaluate_pairs_unknown_measure_still_raises():
    with pytest.raises(ValueError):
        evaluate_pairs("XYZ", np.zeros(10), np.zeros(10))


def test_evaluate_pairs_refuses_features_that_are_not_row_points():
    with pytest.raises(ValueError, match="row points"):
        evaluate_pairs("PC", np.zeros((10, 2, 2)), np.zeros(10))
    # Points with no coordinates have no distances and no tree splits to score.
    for measure in ("PC", "DC", "PPS"):
        with pytest.raises(ValueError, match="row points"):
            evaluate_pairs(measure, np.zeros((10, 0)), np.zeros(10))
    with pytest.raises(ValueError, match="row points"):
        distance_correlation(np.zeros((10, 0)), np.arange(10.0))
    with pytest.raises(ValueError, match="row points"):
        pps(np.zeros((20, 0)), np.arange(20.0))


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
    # Window 40 leaves no anchor, so it sends the pool no work; a repeated window repeats its trials.
    for windows in ((8, 9), (8, 40), (9, 9)):
        space = tiny_space(window_sizes=windows, measures=("PC", "MI"))
        serial = run_grid_search(frame, space, seed=42, jobs=1)
        parallel = run_grid_search(frame, space, seed=42, jobs=2)
        assert serial.records == parallel.records


def _reference_frame():
    """Feature columns with a NaN in b and a 50-row constant stretch in c; two targets."""
    rng = np.random.default_rng(11)
    n = 150
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    b[70] = np.nan
    c = np.round(rng.standard_normal(n), 1)
    c[20:70] = 0.5
    return TimeSeriesFrame(
        timestamps=np.datetime64("2021-01-01") + np.arange(n),
        columns={
            "close": 100.0 * np.exp(np.cumsum(rng.standard_normal(n) * 0.01)),
            "a": a,
            "b": b,
            "c": c,
            "y": 0.01 * np.sin(a) + 0.002 * rng.standard_normal(n),
            "z": np.round(0.004 * rng.standard_normal(n), 3),
        },
    )


def test_grid_search_matches_the_per_configuration_reference():
    """Every record equals the one-configuration-at-a-time scan's, objectives to the bit."""
    frame = _reference_frame()
    space = SearchSpace(
        window_sizes=(12, 40, 64),  # 12 < min_samples: never scored
        feature_sets=(("a",), ("c",), ("a", "b"), ("c", "b"), ("a", "b", "c")),
        targets=("y", "z"),
        measures=MEASURE_IDS,
        horizon=7,  # H != W pairs by offset modulo H
        step=9,
        min_samples=20,
    )

    def fields(records):
        return [
            tuple(repr(float(v)) if k == "objective" else v for k, v in vars(r).items())
            for r in records
        ]

    serial = run_grid_search(frame, space)
    assert fields(serial.records) == fields(reference_grid_search(frame, space))
    assert fields(run_grid_search(frame, space, jobs=2).records) == fields(serial.records)
    scored = [r for r in serial.records if not r.degenerate]
    assert {r.measure for r in scored} == set(MEASURE_IDS)
    assert {r.window_size for r in scored} == {40, 64}
    assert any(r.degenerate and r.window_size > 12 for r in serial.records)


def test_grid_search_labels_each_anchor_once(caplog):
    frame = small_frame(40)
    space = tiny_space(window_sizes=(8,), measures=("PC", "MI"))
    with caplog.at_level(logging.WARNING, logger="depscope.search"):
        log = run_grid_search(frame, space)
    short = [rec.getMessage() for rec in caplog.records if "fewer than" in rec.getMessage()]
    # Anchors 7, 10, ..., 34; the five below row 20 lack trend history.
    assert len(log.records) == 4 * 10
    assert short == [f"anchor {a} has fewer than 20 prior rows; labeling NEUTRAL" for a in (7, 10, 13, 16, 19)]


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


@pytest.mark.parametrize(
    "row, message",
    (
        ("1,8,a,y,PC,2021-01-09,NEUTRAL,0.5", "expected 9 cells, got 8"),
        ("1,8,a,y,PC,2021-01-09,NEUTRAL,0.5,false,x", "expected 9 cells, got 10"),
        ("1,8,a,y,PC,2021-01-09,NEUTRAL,0.5,maybe", "degenerate must be true or false, got 'maybe'"),
        ("1,8,a,y,PC,2021-01-09,NEUTRAL,0.5,", "degenerate must be true or false, got ''"),
        ("1,8,a,y,PC,2021-01-09,NEUTRAL,nan,false", "a scored trial has a finite objective, got nan"),
        ("1,8,a,y,PC,2021-01-09,NEUTRAL,inf,false", "a scored trial has a finite objective, got inf"),
        ("1,8,a,y,PC,2021-01-09,NEUTRAL,0.5,true", "a degenerate trial has objective nan, got 0.5"),
        ("1,8,a,y,PC,2021-01-09,NEUTRAL,-inf,true", "a degenerate trial has objective nan, got -inf"),
        ("1,8,a,y,PC,2021-01-09,NEUTRAL,high,false", "could not convert"),
        ("one,8,a,y,PC,2021-01-09,NEUTRAL,0.5,false", "invalid literal"),
    ),
)
def test_trial_log_csv_refuses_rows_the_writer_cannot_write(row, message):
    good = "0,8,a,y,PC,2021-01-09,NEUTRAL,0.25,false\n"
    text = ",".join(TRIAL_CSV_HEADER) + "\n" + good + row + "\n" + good
    with pytest.raises(ValueError, match=f"^line 3: {message}"):
        read_trial_log_csv_from_text(text)
    back = read_trial_log_csv_from_text(",".join(TRIAL_CSV_HEADER) + "\n" + good)
    assert back.records == (TrialRecord(0, 8, ("a",), "y", "PC", "2021-01-09", "NEUTRAL", 0.25, False),)


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
