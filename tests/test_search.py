import csv
import io
import json
import logging
import math
import re
import tracemalloc
import warnings
from dataclasses import fields as dataclass_fields, replace
import itertools
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import depscope.frame
from depscope import search
from depscope.cli import main
from depscope.frame import TimeSeriesFrame, read_frame, write_csv
from depscope.measures import (
    MEASURE_IDS,
    VALUE_RANGES,
    distance_correlation,
    equal_frequency_symbols,
    mic,
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
from depscope.shaping import anchor_grid, discretize, pair_targets
from depscope.verify import SyntheticSpec, dependence_frame, generate_synthetic

from _oracles import (
    brute_mic_scores,
    pinned_information_gain,
    pinned_mi,
    reference_chunked,
    reference_equal_frequency,
    reference_grid_search,
    reference_parallel_coordinates,
    reference_read_trial_log_csv,
    reference_trial_log_csv,
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
        ("feature_sets", "a\rb", "feature name 'a\\rb' contains '\\r', which csv.writer leaves"),
        ("targets", "a\rb", "target name 'a\\rb' contains '\\r', which csv.writer leaves"),
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
        for measure in MEASURE_IDS:  # a target of bad alone has a median of bad
            for pair in ((x_bad, y), (xs, y_bad), (xs, np.full(40, bad))):
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
    _, values, reasons = scan_window(
        frame, 1, (("a",),), ("y",), ("PC", "SC", "DC"),
        step=5, horizon=1, bin_width=0.001, feature_bins=8,
    )
    assert reasons.size
    assert np.isnan(values).all() and (reasons == "need at least 2 observations").all()


def test_information_measures_of_an_empty_window_say_so():
    """MI, IG and RSI_SYNERGY refuse n = 0 with a reason instead of raising."""
    for measure in ("MI", "IG", "RSI_SYNERGY"):
        r = evaluate_pairs(measure, np.zeros(0), np.zeros(0))
        assert r.degenerate and r.params["reason"] == "empty symbol sequences"


def test_pps_of_an_empty_window_says_so():
    """PPS refuses n = 0 with the reason its baseline gives instead of raising."""
    r = evaluate_pairs("PPS", np.zeros(0), np.zeros(0))
    assert r.degenerate and r.params["reason"] == "y must be a non-empty vector"


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


def test_targets_near_float64s_limit_are_refused_without_a_warning():
    """Finite targets whose sums overflow read degenerate with their reason, and warn nothing,
    through evaluate_pairs and for one such anchor in a scan block of clean anchors."""
    x = np.random.default_rng(0).standard_normal(200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = evaluate_pairs("PPS", x, x * 3e306)
        assert r.degenerate
        assert r.params["reason"] == "targets overflow the split scan's squared sums"
        for constant in (3e306, 1e308):  # the median of two 1e308s overflows to inf
            r = evaluate_pairs("PPS", x, np.full(200, constant))
            assert r.degenerate and r.params["reason"] == "constant target"
        r = evaluate_pairs("PC", x, x * 5e307)
        assert r.degenerate and r.params["reason"] == "sums of squares are not finite and positive"
        assert evaluate_pairs("SC", x, x * 5e307).value == 1.0

        rng = np.random.default_rng(1)
        y = rng.standard_normal(400) * 0.01
        y[250:300] = rng.standard_normal(50) * 3e306  # the targets of the anchor at row 249
        frame = TimeSeriesFrame(
            np.datetime64("2021-01-01") + np.arange(400), {"a": rng.standard_normal(400), "y": y}
        )
        anchors, values, reasons = scan_window(
            frame, 50, (("a",),), ("y",), ("PPS", "PC", "SC"),
            step=50, horizon=50, bin_width=0.001, feature_bins=8,
        )
    _assert_scan_contract(values, reasons, ("PPS", "PC", "SC"))
    flagged = {a: [reason for reason in rs if reason] for a, rs in zip(anchors, reasons)}
    assert flagged.pop(249) == [
        "targets overflow the split scan's squared sums",
        "sums of squares are not finite and positive",
    ]
    assert len(flagged) == len(anchors) - 1 and not any(flagged.values())


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

        def score(measure):
            return evaluate_pairs(measure, xs, ys, feature_bins=feature_bins).value

        assert score("MI") == pinned_mi(x, y)
        assert score("IG") == pinned_information_gain(y, x)
        i_single = 0.0
        for col in cols:
            i_single += pinned_mi(col, y)
        assert score("RSI_SYNERGY") == pinned_mi(list(zip(*cols)), y) - i_single


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
        ({"bin_width": math.inf}, "bin_width must be finite"),
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
    """Every scan_window result is evaluate_pairs' on its own window: value and reason.

    Returns each trial's (measure, value, reason) at every anchor."""
    anchors, values, reasons = scan_window(
        frame, window, feature_sets, targets, measures,
        step=9, horizon=horizon, bin_width=0.001, feature_bins=8,
    )
    assert len(anchors) > 1
    _assert_scan_contract(values, reasons, measures)
    ids = [m for _ in feature_sets for _ in targets for m in measures]
    results = []
    for a, row_values, row_reasons in zip(anchors.tolist(), values.tolist(), reasons.tolist()):
        expected = []
        for fs in feature_sets:
            xs = np.column_stack([frame.column(c)[a - window + 1 : a + 1] for c in fs])
            for t in targets:
                ys = pair_targets(frame.column(t)[a + 1 : a + 1 + horizon], window)
                expected += [evaluate_pairs(m, xs, ys) for m in measures]
        assert [(repr(v), reason) for v, reason in zip(row_values, row_reasons)] == [
            (repr(r.value), r.params.get("reason", "")) for r in expected
        ]
        results += zip(ids, row_values, row_reasons)
    return results


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
    mic = {reason for measure, _, reason in results if measure == "MIC"}
    assert mic == {"mic needs at least 8 observations, got 6"}
    for measure in ("PC", "MI"):
        assert any(not reason for m, _, reason in results if m == measure)

    results = _assert_scan_is_evaluate_pairs(
        frame, 40, (("big",), ("a",), ("big", "c")), ("y", "huge"), ("DC", "MI", "IG"), horizon=7
    )
    reasons = {reason for _, _, reason in results}
    assert reasons >= {"distances overflow"}
    assert any("int64" in reason for reason in reasons)
    assert any(not reason for m, _, reason in results if m == "DC")
    assert any(not reason for m, _, reason in results if m == "MI")


INFORMATION_MEASURES = ("MI", "IG", "RSI_SYNERGY", "MIC")
COLUMN_KINDS = ("continuous", "ties", "signed zeros", "constant")
PLANTED_REASONS = {
    "nan": "non-finite input",
    "int64": "values span more bins than int64 symbols can index",
    "float64": "values span more than float64",
}
# Values planted in one feature column at one anchor each: every trial whose set holds the
# column is flagged "non-finite input" there, every other trial is scored as elsewhere.
PLANTED_FEATURES = {"feature nan": math.nan, "feature inf": math.inf, "feature -inf": -math.inf}


def plant_features(draw, columns, plants, window, step):
    """Put each PLANTED_FEATURES value that plants places into a drawn feature column, at a
    drawn row of its anchor's window; returns each such anchor's column."""
    bad = {}
    for kind, value in PLANTED_FEATURES.items():
        if kind in plants:
            name = draw(st.sampled_from("abc"))
            columns[name][plants[kind] * step + draw(st.integers(0, window - 1))] = value
            bad[plants[kind]] = name
    return bad


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

    One anchor each may carry a NaN target, a target past int64 bins,
    feature windows whose span overflows float64, and each PLANTED_FEATURES value.
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
    plants = {
        kind: free.pop()
        for kind in (*PLANTED_REASONS, *PLANTED_FEATURES)
        if free and draw(st.booleans())
    }
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
        elif reason == "float64":
            for name in "abc":
                columns[name][start : start + 2] = (1.7e308, -1.7e308)
    bad = plant_features(draw, columns, plants, window, step)
    frame = TimeSeriesFrame(np.datetime64("2021-01-01") + np.arange(n), columns)
    scan = dict(
        window=window, horizon=horizon, step=step, feature_bins=feature_bins, sets=tuple(sets),
        bad=bad,
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

    if measure == "MI":
        return pinned_mi(x, y), None
    if measure == "IG":
        return pinned_information_gain(y, x), None
    i_single = 0.0
    for col in cols:
        i_single += pinned_mi(col, y)
    return pinned_mi(list(zip(*cols)), y) - i_single, None


def _assert_scan_contract(values, reasons, measures):
    """A scan_window result holds NaN exactly where a reason does, and every other value
    inside its measure's range; its columns cycle through measures."""
    assert (np.isnan(values) == (reasons != "")).all()
    lo, hi = np.array([VALUE_RANGES[m] for m in measures] * (values.shape[1] // len(measures))).T
    assert (((lo <= values) & (values <= hi)) | (reasons != "")).all()


def _trial_cells(values, reasons):
    """Each anchor's trials of a scan_window result as (repr(value), reason) pairs."""
    return [list(zip(map(repr, vs), rs)) for vs, rs in zip(values.tolist(), reasons.tolist())]


def cut_blocks_of(mp, per_block, window, feature_sets):
    """Patch the block constants so that a scan of window over feature_sets and one target
    cuts per_block anchors a block, both bounds binding, and return the list that the anchor
    count of each block the scan makes is appended to."""
    columns = len({name for fs in feature_sets for name in fs}) + 1
    mp.setattr(search, "_BLOCK_CELLS", per_block * window * columns)
    mp.setattr(search, "_COLUMN_CELLS", per_block * window)
    blocks = []
    block = search._Block

    def counted(anchors, *rest):
        blocks.append(anchors)
        return block(anchors, *rest)

    mp.setattr(search, "_Block", counted)
    return blocks


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(drawn=block_scans())
def test_block_boundaries_change_no_information_result(drawn):
    """MI, IG, RSI_SYNERGY and MIC equal the exact-table references at every anchor, whatever
    the anchors per block and however the anchors are sliced, and each planted refusal or
    non-finite feature flags its own anchor and no other."""
    frame, scan, per_block, split, plants = drawn
    window = scan["window"]

    def run(block=slice(None)):
        return scan_window(
            frame, window, scan["sets"], ("y",), INFORMATION_MEASURES, step=scan["step"],
            horizon=scan["horizon"], bin_width=0.001, feature_bins=scan["feature_bins"],
            block=block,
        )

    with pytest.MonkeyPatch.context() as mp:
        blocks = cut_blocks_of(mp, per_block, window, scan["sets"])
        anchors, values, reasons = run()
        assert blocks == [len(anchors[i : i + per_block]) for i in range(0, len(anchors), per_block)]
        _, *head = run(slice(0, split))
        _, *tail = run(slice(split, None))
    assert _trial_cells(*head) + _trial_cells(*tail) == _trial_cells(values, reasons)
    _assert_scan_contract(values, reasons, INFORMATION_MEASURES)

    flagged = {reason: set() for reason in PLANTED_REASONS.values()}
    scores = zip(anchors.tolist(), values.tolist(), reasons.tolist())
    for i, (anchor, row_values, row_reasons) in enumerate(scores):
        trials = [(fs, m) for fs in scan["sets"] for m in INFORMATION_MEASURES]
        for (features, measure), value, reason in zip(trials, row_values, row_reasons):
            if reason:
                flagged.setdefault(reason, set()).add(i)
            if plants.get("nan") == i or scan["bad"].get(i) in features:
                expected = "non-finite input"
            elif measure == "MIC" and len(features) > 1:
                expected = "pairwise measure on multivariate input"
            elif plants.get("int64") == i and measure != "MIC":
                expected = PLANTED_REASONS["int64"]
            elif plants.get("float64") == i:
                expected = PLANTED_REASONS["float64"]
            else:
                expected, grid = _expected_information(frame, scan, anchor, features, measure)
                assert not reason, (features, measure, reason)
                assert value == expected, (features, measure)
                if measure == "MIC":  # the scan keeps no grid; mic() of the window reports it
                    xs = frame.column(features[0])[anchor - window + 1 : anchor + 1]
                    ys = frame.column("y")[anchor + 1 : anchor + 1 + scan["horizon"]]
                    r = mic(xs, pair_targets(ys, window))
                    assert r.value == value and r.params.get("grid") == grid
                continue
            assert math.isnan(value) and reason == expected
    expected = {r: {plants[k]} if k in plants else set() for k, r in PLANTED_REASONS.items()}
    read = {name for fs in scan["sets"] for name in fs}
    expected["non-finite input"] |= {i for i, name in scan["bad"].items() if name in read}
    assert {reason: flagged[reason] for reason in expected} == expected


ANCHOR_MEASURES = ("PC", "SC", "DC", "PPS")
# Targets planted at one anchor each, and the reasons they give PC, SC, DC and PPS there.
PLANTED_TARGETS = {
    "non-finite": ("non-finite input",) * 4,  # NaN, inf or -inf
    "constant": (
        "zero variance", "zero rank variance", "zero distance variance", "constant target"
    ),
    "squares": (  # about 1e200: finite sums whose squares overflow
        "sums of squares are not finite and positive", None, "distances overflow",
        "targets overflow the split scan's squared sums",
    ),
    "huge": (  # about 3e306: sums that overflow too
        "sums of squares are not finite and positive", None, "distances overflow",
        "targets overflow the split scan's squared sums",
    ),
}


@st.composite
def anchor_scans(draw):
    """A scan of 1-6 disjoint windows of 8-400 rows, the anchors per block to score it in, and
    at most one anchor per PLANTED_TARGETS kind whose target window carries it and per
    PLANTED_FEATURES value whose window holds it in one feature column."""
    window = draw(st.sampled_from((8, 9, 16, 31, 64, 100, 200, 400)))
    horizon = draw(st.sampled_from((window, max(1, window // 3), window + 7)))
    count = draw(st.integers(1, 6))
    per_block = draw(st.sampled_from((1, 2, count)))
    split = draw(st.integers(0, count))
    sets = draw(
        st.lists(st.sampled_from((("a",), ("b",), ("a", "b"), ("b", "c", "a"))), min_size=1,
                 max_size=3, unique=True)
    )
    free = list(draw(st.permutations(range(count))))
    plants = {
        kind: free.pop()
        for kind in (*PLANTED_TARGETS, *PLANTED_FEATURES)
        if free and draw(st.booleans())
    }
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    step = max(window, horizon)  # windows and horizons of two anchors never share a row
    n = window + horizon + (count - 1) * step
    columns = {name: rng.standard_normal(n) for name in "abc"}
    columns["y"] = 0.01 * rng.standard_normal(n)
    for kind, i in plants.items():
        targets = slice(i * step + window, i * step + window + horizon)
        if kind == "non-finite":
            columns["y"][targets.start] = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
        elif kind == "constant":
            columns["y"][targets] = 0.25
        elif kind in ("squares", "huge"):
            scale = 1e200 if kind == "squares" else 3e306
            columns["y"][targets] = rng.standard_normal(horizon) * scale
    bad = plant_features(draw, columns, plants, window, step)
    frame = TimeSeriesFrame(np.datetime64("2021-01-01") + np.arange(n), columns)
    scan = dict(window=window, horizon=horizon, step=step, sets=tuple(sets), bad=bad)
    return frame, scan, per_block, split, plants


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(drawn=anchor_scans())
def test_block_boundaries_change_no_anchor_measure_result(drawn):
    """PC, SC, DC and PPS of every anchor equal a one-anchor evaluate_pairs by repr, whatever
    the anchors per block and however the anchors are sliced, and each planted target or
    non-finite feature flags its own anchor and no other."""
    frame, scan, per_block, split, plants = drawn
    window, horizon = scan["window"], scan["horizon"]

    def run(block=slice(None)):
        return scan_window(
            frame, window, scan["sets"], ("y",), ANCHOR_MEASURES, step=scan["step"],
            horizon=horizon, bin_width=0.001, feature_bins=8, block=block,
        )

    with pytest.MonkeyPatch.context() as mp:
        blocks = cut_blocks_of(mp, per_block, window, scan["sets"])
        anchors, values, reasons = run()
        assert blocks == [len(anchors[i : i + per_block]) for i in range(0, len(anchors), per_block)]
        _, *head = run(slice(0, split))
        _, *tail = run(slice(split, None))
    assert _trial_cells(*head) + _trial_cells(*tail) == _trial_cells(values, reasons)
    _assert_scan_contract(values, reasons, ANCHOR_MEASURES)

    planted = {i: kind for kind, i in plants.items()}
    scores = zip(anchors.tolist(), values.tolist(), reasons.tolist())
    for i, (anchor, row_values, row_reasons) in enumerate(scores):
        ys = pair_targets(frame.column("y")[anchor + 1 : anchor + 1 + horizon], window)
        trials = [(fs, m) for fs in scan["sets"] for m in ANCHOR_MEASURES]
        for (features, measure), value, reason in zip(trials, row_values, row_reasons):
            xs = np.column_stack(
                [frame.column(c)[anchor - window + 1 : anchor + 1] for c in features]
            )
            r = evaluate_pairs(measure, xs, ys)
            assert (repr(value), reason) == (repr(r.value), r.params.get("reason", "")), (
                i, features, measure
            )
            reason = reason or None
            if planted.get(i) == "non-finite" or scan["bad"].get(i) in features:
                assert reason == "non-finite input"
            elif len(features) > 1 and measure in ("PC", "SC"):
                assert reason == "pairwise measure on multivariate input"
            elif planted.get(i) in PLANTED_TARGETS:
                assert reason == PLANTED_TARGETS[planted[i]][ANCHOR_MEASURES.index(measure)]
            else:
                assert reason is None, (i, features, measure, reason)


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
        anchors, values, reasons = scan_window(
            frame, 100, (("a", "b", "c"), ("a",)), ("y",),
            INFORMATION_MEASURES + ("PC", "SC", "DC", "PPS"),
            step=1, horizon=100, bin_width=0.001, feature_bins=8,
        )
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(anchors) == 2301
    assert set(reasons[0]) == {"", "pairwise measure on multivariate input"}
    assert peak - retained < 3 * 2**20


def test_scan_drops_mics_buffers_before_its_later_trials():
    """A block drops MIC's sides and work buffers once its MIC trials are done: a verification
    scan of all eight measures peaks at most 1.5 MiB over its start (keeping them through the
    block's later trials peaks at 1.82 MiB)."""
    spec = SyntheticSpec(length=2000, embedding="nonlinear_lag", lag=100, seed=0)
    frame = dependence_frame(generate_synthetic(spec))

    def scan():
        return scan_window(
            frame, 100, (("signal",),), ("ret",), MEASURE_IDS,
            step=25, horizon=100, bin_width=0.001, feature_bins=8,
        )

    scan()  # fills the per-n tables that every later scan reads
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        scan()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 1.5 * 2**20


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
    # Windows 37 and 40 leave no anchor, so they send the pool no work, and (37, 40) makes
    # no trial at all; a repeated window repeats its trials.
    for windows in ((8, 9), (8, 40), (9, 9), (37, 40)):
        space = tiny_space(window_sizes=windows, measures=("PC", "MI"))
        serial = run_grid_search(frame, space, seed=42, jobs=1)
        parallel = run_grid_search(frame, space, seed=42, jobs=2)
        assert serial.records == parallel.records
    assert serial.records == ()


class _InProcessPool:
    """A stand-in for ProcessPoolExecutor that records each pool it makes (its max_workers
    and the units mapped over it) and scores the units in this process."""

    def __init__(self, pools, max_workers, initializer, initargs):
        self.max_workers, self.units = max_workers, []
        initializer(*initargs)
        pools.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, units):
        self.units = list(units)
        return map(fn, self.units)


def in_process_pools(mp):
    """Patch concurrent.futures.ProcessPoolExecutor with _InProcessPool and return the list
    of the pools that run_grid_search makes."""
    import concurrent.futures

    pools = []
    mp.setattr(search, "_worker_scan", None)  # the stand-in's initializer sets it
    mp.setattr(
        concurrent.futures, "ProcessPoolExecutor",
        lambda **kwargs: _InProcessPool(pools, **kwargs),
    )
    return pools


def test_grid_search_units_are_the_scan_blocks():
    """The pool's units are the anchor blocks a jobs=1 grid scores, window by window, and
    jobs=2 writes the jobs=1 records."""
    frame = small_frame(40, seed=5)
    space = tiny_space(window_sizes=(8, 9), measures=("PC", "MI"))
    counts = {w: len(anchor_grid(len(frame), w, space.step, space.horizon)) for w in (8, 9)}
    assert counts == {8: 10, 9: 10}  # 3 anchors a block leave a remainder
    with pytest.MonkeyPatch.context() as mp:
        blocks = cut_blocks_of(mp, 3, 9, space.feature_sets)  # 3 a block at window 8 too
        serial = run_grid_search(frame, space, jobs=1)
        assert blocks == [3, 3, 3, 1, 3, 3, 3, 1]
        assert run_grid_search(frame, space, jobs=2).records == serial.records
        pools = in_process_pools(mp)
        assert run_grid_search(frame, space, jobs=2).records == serial.records
    [pool] = pools
    units = [(w, len(range(counts[w])[cut])) for w, cut in pool.units]
    assert units == [(w, n) for w in (8, 9) for n in (3, 3, 3, 1)]
    assert blocks == [n for _, n in units] * 2  # the jobs=1 grid's, then the stand-in pool's


def test_grid_search_starts_no_more_workers_than_blocks():
    """jobs caps the pool at one worker per block, and one block takes no pool."""
    frame = small_frame(40, seed=5)
    with pytest.MonkeyPatch.context() as mp:
        pools = in_process_pools(mp)
        for windows, jobs, workers in (((8, 9), 512, 2), ((8, 9), 2, 2), ((8,), 512, None)):
            space = tiny_space(window_sizes=windows, measures=("PC", "MI"))
            log = run_grid_search(frame, space, jobs=jobs)
            assert log.records == run_grid_search(frame, space, jobs=1).records
            made = [pool.max_workers for pool in pools]
            assert made == ([] if workers is None else [workers])
            pools.clear()


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
            tuple(repr(float(v)) if k == "objective" else v for k, v in r._asdict().items())
            for r in records
        ]

    serial = run_grid_search(frame, space)
    assert fields(serial.records) == fields(reference_grid_search(frame, space))
    parallel = run_grid_search(frame, space, jobs=2)
    assert fields(parallel.records) == fields(serial.records)
    assert parallel.records == serial.records  # degenerate trials share one NaN objective
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


TRIAL_LOG_HEADER = ",".join(TRIAL_CSV_HEADER) + "\n"
GOOD_TRIAL_ROW = "0,8,a,y,PC,2021-01-09,NEUTRAL,0.25,false\n"
GOOD_TRIAL = TrialRecord(0, 8, ("a",), "y", "PC", "2021-01-09", "NEUTRAL", 0.25, False)
BAD_TRIAL_BASE = "1,8,a,y,PC,2021-01-09,NEUTRAL,0.5,false"  # the good row each one changes
BAD_TRIAL_ROWS = (  # rows write_trial_log_csv cannot write, and the reader's message
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
)


@pytest.mark.parametrize("row, message", BAD_TRIAL_ROWS)
def test_trial_log_csv_refuses_rows_the_writer_cannot_write(row, message):
    text = TRIAL_LOG_HEADER + GOOD_TRIAL_ROW + row + "\n" + GOOD_TRIAL_ROW
    with pytest.raises(ValueError, match=f"^line 3: {message}"):
        read_trial_log_csv_from_text(text)
    back = read_trial_log_csv_from_text(TRIAL_LOG_HEADER + GOOD_TRIAL_ROW)
    assert back.records == (GOOD_TRIAL,)


def test_trial_log_csv_file_round_trip(tmp_path):
    frame = small_frame(24, seed=7)
    log = run_grid_search(frame, tiny_space(), seed=42)
    path = tmp_path / "trials.csv"
    write_trial_log_csv(log, path)
    assert read_trial_log_csv(path).records == log.records


def test_trial_log_csv_skips_blank_rows():
    """As csv.DictReader does: a file that ends in a blank line reads, and lines stay physical."""
    text = TRIAL_LOG_HEADER + "\n" + GOOD_TRIAL_ROW + "\n" + GOOD_TRIAL_ROW + "\n\n"
    assert read_trial_log_csv_from_text(text).records == (GOOD_TRIAL, GOOD_TRIAL)
    bad = GOOD_TRIAL_ROW.replace("false", "x")
    with pytest.raises(ValueError, match="^line 4: degenerate must be true or false, got 'x'$"):
        read_trial_log_csv_from_text(TRIAL_LOG_HEADER + GOOD_TRIAL_ROW + "\n" + bad)


def test_trial_log_csv_text_the_csv_module_cannot_split_is_a_value_error():
    """A bare carriage return in an unquoted cell, as csv.writer leaves one, names its line."""
    text = TRIAL_LOG_HEADER + GOOD_TRIAL_ROW + GOOD_TRIAL_ROW.replace(",a,", ",a\rb,")
    with pytest.raises(ValueError, match="^line 3: new-line character seen in unquoted field"):
        read_trial_log_csv(io.StringIO(text))


def test_trial_log_csv_reads_paths_and_text_streams(tmp_path):
    """One row, and a log of many read blocks whose names are multi-byte in UTF-8: a path, its
    str and a text stream read them as the row-wise reference reads their text.  Bytes and
    binary streams raise TypeError from either reader, before anything is read."""
    records = tuple(
        TrialRecord(i, 8, ("\u00e9" * (i % 5), "\u6f22"), "y\u2028", "MI", "2021-01-09", "UP",
                    math.nan if i % 3 else i / 7, bool(i % 3))
        for i in range(3000)
    )
    long = write_trial_log_csv(TrialLog(records, None, 0))
    assert len(long.encode()) > 10 * io.DEFAULT_BUFFER_SIZE
    path = tmp_path / "trials.csv"
    for text in (TRIAL_LOG_HEADER + GOOD_TRIAL_ROW, long):
        path.write_text(text, encoding="utf-8")
        expected = trial_fields(reference_read_trial_log_csv(text).records)
        for source in (path, str(path), io.StringIO(text)):
            assert trial_fields(read_trial_log_csv(source).records) == expected
        binary = io.BytesIO(text.encode())
        for source, read in product((text.encode(), binary), (read_trial_log_csv, read_frame)):
            with pytest.raises(TypeError, match="^expected a path or a text stream, got "):
                read(source)
        assert binary.tell() == 0
    assert read_trial_log_csv(io.StringIO(TRIAL_LOG_HEADER + GOOD_TRIAL_ROW)).records == (
        GOOD_TRIAL,
    )


NAME_CHARS = "ab_\u00e9\u6f22\u2028\x00,\"\n\r|"  # non-ASCII, JSON escapes, CSV quoting


def trial_fields(records):
    """The fields of each record, NaN objectives compared by repr."""
    return [
        tuple(repr(v) if k == "objective" else v for k, v in r._asdict().items()) for r in records
    ]


def outcome(read, *args):
    """What a writer or reader returns, or the type and message of what it raises."""
    try:
        result = read(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return trial_fields(result.records) if isinstance(result, TrialLog) else result


@st.composite
def trial_logs(draw, names=st.text(st.sampled_from(NAME_CHARS), max_size=4), valid=False):
    """Trial logs of up to 6 trials; valid ones are what run_grid_search writes.

    Objectives include NaN, signed zeros and infinities, the smallest
    subnormal and 1e308; a valid log pairs NaN with degenerate and a finite
    value with a scored trial.
    """
    special = st.sampled_from(
        (math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, 1e308, -1e308, 0.1, 1 / 3)
    )
    any_objective = st.one_of(special, st.floats())
    records = []
    for trial_id in range(draw(st.integers(0, 6))):
        if valid:
            degenerate = draw(st.booleans())
            finite = st.one_of(special, st.floats()).filter(math.isfinite)
            objective = math.nan if degenerate else draw(finite)
        else:
            degenerate, objective = draw(st.booleans()), draw(any_objective)
        records.append(
            TrialRecord(
                draw(st.sampled_from((trial_id, -trial_id, 10**30))),
                draw(st.integers(-5, 400)),
                tuple(draw(st.lists(names, min_size=1, max_size=3))),
                draw(names),
                draw(st.sampled_from(MEASURE_IDS) | names),
                draw(names),
                draw(st.sampled_from(("UP", "DOWN", "NEUTRAL")) | names),
                objective,
                degenerate,
            )
        )
    space = draw(
        st.sampled_from(
            (
                None,
                default_search_space(),
                SearchSpace((8,), (("\u00e9,\"\n",),), ("t\u2028",), ("MI",), horizon=3),
            )
        )
    )
    return TrialLog(
        records=tuple(records),
        space=space,
        seed=draw(st.integers(-1, 2**40)),
        created_utc=draw(names),
        elapsed_s=draw(any_objective),
    )


CHUNKS = (1, 2, 3, 7)  # chunk sizes the writer tests patch in; reader tests put faults there


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(log=trial_logs(), chunk=st.sampled_from(CHUNKS))
def test_trial_writers_write_the_row_wise_references_bytes(log, chunk):
    """At every chunk size, returned or written to a stream."""
    pairs = (
        (write_trial_log_csv, reference_trial_log_csv),
        (write_parallel_coordinates, reference_parallel_coordinates),
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(depscope.frame, "_CHUNK_ROWS", chunk)
        for write, reference in pairs:
            expected = reference(log)
            assert write(log) == expected
            out = io.StringIO()
            assert write(log, out) is None
            assert out.getvalue() == expected


# Pieces of column names: the date column's name, text that CSV quotes or splits on, and the
# characters the trial log and config_key join names with.
SEARCH_NAME_PIECES = ("date", "", ",", '"', "\n", " ", "|", "+", "a")


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    names=st.lists(
        st.lists(st.sampled_from(SEARCH_NAME_PIECES), max_size=3).map("".join),
        min_size=1, max_size=3, unique=True,
    ),
    data=st.data(),
)
def test_every_search_log_writes_and_reads_back_equal(names, data):
    """SearchSpace refuses a feature name holding '|' or '+' and a target name holding '|'.
    Any log run_grid_search returns over the other names, on a tiny frame whose columns may be
    constant, reads back through read_trial_log_csv with equal fields (NaN exactly where
    degenerate), and the read-back log writes the same bytes."""
    for name in names:
        as_feature = dict(feature_sets=((name,),), targets=("y",))
        as_target = dict(feature_sets=(("a",),), targets=(name,))
        for axes, refused in ((as_feature, "|+"), (as_target, "|")):
            if any(char in name for char in refused):
                with pytest.raises(ValueError, match=r"name .* contains '[|+]', which "):
                    tiny_space(**axes)
            else:
                tiny_space(**axes)
    features = [name for name in names if not ("|" in name or "+" in name)]
    targets = [name for name in names if "|" not in name]
    assume(features and targets)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = 30
    columns = {
        name: np.full(n, 1.5) if data.draw(st.booleans()) else rng.standard_normal(n)
        for name in names
    }
    columns["close"] = 100.0 + np.cumsum(rng.standard_normal(n))
    frame = TimeSeriesFrame(np.datetime64("2021-01-01") + np.arange(n), columns)
    space = tiny_space(
        feature_sets=data.draw(
            st.lists(st.lists(st.sampled_from(features), min_size=1, max_size=2, unique=True)
                     .map(tuple), min_size=1, max_size=2, unique=True)
        ),
        targets=data.draw(st.lists(st.sampled_from(targets), min_size=1, max_size=2, unique=True)),
        measures=data.draw(st.lists(st.sampled_from(MEASURE_IDS), min_size=1, max_size=2,
                                    unique=True)),
        min_samples=data.draw(st.sampled_from((2, 9))),
    )
    log = run_grid_search(frame, space)
    assert all(r.degenerate == math.isnan(r.objective) for r in log.records)
    text = write_trial_log_csv(log)
    back = read_trial_log_csv(io.StringIO(text))
    assert trial_fields(back.records) == trial_fields(log.records)
    assert write_trial_log_csv(back) == text


class Unencodable:
    pass


@pytest.mark.parametrize(
    "changes",
    (
        {1: {"objective": np.float64(0.5)}, 2: {"objective": np.float64("nan")}},
        {0: {"objective": 2, "degenerate": 1}, 1: {"window_size": True}},
        {0: {"degenerate": np.True_}},
        {1: {"objective": np.float32(0.5)}},
        {1: {"objective": "0.5"}},
        {1: {"features": ("a", 1)}},
        {0: {"objective": "high"}, 1: {"features": ("a", 1)}},
        {1: {"features": ["a", "b"]}, 2: {"features": ()}},
        {2: {"target": Unencodable()}, 1: {"trend": b"x"}},
        {1: {"anchor_date": Unencodable(), "trend": b"x"}},
        {0: {"measure": type("Id", (str,), {})("MI")}},
    ),
)
def test_trial_writers_match_the_references_on_other_types(changes):
    """Values of other types than run_grid_search writes: the same text, or the same error
    where one trial holds values that cannot be written, at every chunk size.  Where two
    trials do, the writer raises; which of their errors is not fixed, as a writer converts
    one field of every trial at a time."""
    log = replace(GOLDEN_LOG, records=tuple(
        r._replace(**changes.get(i, {})) for i, r in enumerate(GOLDEN_LOG.records)
    ))
    pairs = (
        (write_trial_log_csv, reference_trial_log_csv),
        (write_parallel_coordinates, reference_parallel_coordinates),
    )
    for (write, reference), chunk in product(pairs, CHUNKS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(depscope.frame, "_CHUNK_ROWS", chunk)
            got = outcome(write, log)
        raised = [outcome(reference, replace(log, records=(r,))) for r in log.records]
        if sum(isinstance(one, tuple) for one in raised) > 1:  # (type, message): it raised
            assert isinstance(got, tuple) and got[0] in (TypeError, ValueError), (write, chunk)
        else:
            assert got == outcome(reference, log), (write, chunk)


@pytest.mark.parametrize(
    "write, fault",
    (
        (write_trial_log_csv, {"features": ("a", 1)}),
        (write_parallel_coordinates, {"objective": "high"}),
        (write_trial_log_json, {"seed": Unencodable()}),
        (write_trial_log_json, {"elapsed_s": 10**5000}),
    ),
)
def test_a_writer_that_raises_leaves_its_destination_as_it_was(tmp_path, write, fault):
    """A fault in the last trial, or in trials.json's run record, chunks of one trial: nothing
    is written, to a path or a stream, before the writer raises."""
    head = {k: v for k, v in fault.items() if k in {f.name for f in dataclass_fields(TrialLog)}}
    trial = {k: v for k, v in fault.items() if k not in head}
    last = GOLDEN_LOG.records[0]._replace(**{"trial_id": 2, **trial})
    log = replace(GOLDEN_LOG, records=GOLDEN_LOG.records[:-1] + (last,), **head)
    path = tmp_path / "artifact"
    path.write_bytes(b"kept\r\n\xc3\xa9")
    stream = io.StringIO("kept")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(depscope.frame, "_CHUNK_ROWS", 1)
        for destination in (path, str(path), stream):
            with pytest.raises((TypeError, ValueError)):
                write(log, destination)
    assert path.read_bytes() == b"kept\r\n\xc3\xa9"
    assert stream.getvalue() == "kept"


def put_fault(cells, bad):
    """The cells with the fault of a BAD_TRIAL_ROWS row: the cells where it differs from
    BAD_TRIAL_BASE, and its cell count."""
    base = BAD_TRIAL_BASE.split(",")
    changed = {i: cell for i, (cell, was) in enumerate(zip(bad, base)) if cell != was}
    cells = [changed.get(i, cell) for i, cell in enumerate(cells)]
    return (cells + ["x"] * len(bad))[: len(bad)]


def fault_row(where, rows, chunk):
    """The index of the row a fault put "where" goes to: the first, middle or last row, or the
    last row of the first chunk or the first of the second (the last row if there is none)."""
    edge = min(chunk, len(rows) - 1)
    return {"first": 0, "middle": len(rows) // 2, "last": -1, "edge-1": edge - 1, "edge": edge}[
        where
    ]


FAULT_PLACES = ("first", "middle", "last", "edge-1", "edge")


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(
    # csv.writer leaves "\r" unquoted, so a name holding one does not round-trip, and
    # "|" splits a feature name.
    log=trial_logs(names=st.text(st.sampled_from(NAME_CHARS.replace("\r", "").replace("|", ""))),
                   valid=True),
    faults=st.lists(
        st.tuples(st.sampled_from(FAULT_PLACES), st.sampled_from(BAD_TRIAL_ROWS)), max_size=2
    ),
    chunk=st.sampled_from(CHUNKS),
)
def test_trial_log_reader_is_the_row_wise_reference(log, faults, chunk):
    """Reference-written trials with up to two faulty rows, on either side of a writer's chunk
    edge: equal records or the same error."""
    text = reference_trial_log_csv(log)
    rows = list(csv.reader(io.StringIO(text)))[1:]
    for where, (bad, _) in faults:  # two faults on one row make a row with two faulty cells
        if rows:
            at = fault_row(where, rows, chunk)
            rows[at] = put_fault(rows[at], bad.split(","))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    text = TRIAL_LOG_HEADER + buf.getvalue()
    expected = outcome(reference_read_trial_log_csv, text)
    assert outcome(read_trial_log_csv_from_text, text) == expected
    if not faults:
        assert expected == trial_fields(log.records)


def test_trial_log_reader_is_the_reference_on_two_faults_in_one_row():
    """Every ordered pair of BAD_TRIAL_ROWS faults in one row, between good rows."""
    for (first, _), (second, _) in product(BAD_TRIAL_ROWS, repeat=2):
        cells = put_fault(put_fault(BAD_TRIAL_BASE.split(","), first.split(",")), second.split(","))
        text = TRIAL_LOG_HEADER + GOOD_TRIAL_ROW + ",".join(cells) + "\n" + GOOD_TRIAL_ROW
        expected = outcome(reference_read_trial_log_csv, text)
        got = outcome(read_trial_log_csv_from_text, text)
        assert got == expected, (first, second)


def test_trial_log_reader_is_the_reference_on_a_long_log():
    """2,200 trials, parsed one at a time: a row with too few cells does not hide a bad
    objective 200 rows above it, faults on rows 1,024 and 1,501 are found, and a clean log
    reads."""
    good = [f"{i},8,a,y,PC,2021-01-09,NEUTRAL,{i / 7!r},false" for i in range(2200)]
    short = "1,8,a,y,PC,2021-01-09,NEUTRAL,0.5"
    cases = (
        ({}, None),
        ({900: short, 700: short + "x,false"},
         "line 702: could not convert string to float: '0.5x'"),
        ({1023: short}, "line 1025: expected 9 cells, got 8"),
        ({1500: short + ",maybe"}, "line 1502: degenerate must be true or false, got 'maybe'"),
    )
    for faults, message in cases:
        rows = [faults.get(i, row) for i, row in enumerate(good)]
        text = TRIAL_LOG_HEADER + "\n".join(rows) + "\n"
        expected = outcome(reference_read_trial_log_csv, text)
        if message is None:
            assert len(expected) == len(good)
        else:
            assert expected == (ValueError, message)
        assert outcome(read_trial_log_csv_from_text, text) == expected, faults


TRIAL_FAULTS = {  # rows the reader refuses: a bad cell, text the csv module cannot split,
    "bad": GOOD_TRIAL_ROW.replace("false", "x").encode(),  # invalid UTF-8
    "unsplit": GOOD_TRIAL_ROW.replace(",a,", ",a\rb,").encode(),
    "undecodable": GOOD_TRIAL_ROW.encode().replace(b",a,", b",a\xff,"),
}


def undecodable_outcome(read, source):
    """outcome(read, source), with a UnicodeDecodeError as its type, reason and the position of
    the first bad byte."""
    try:
        result = read(source)
    except UnicodeDecodeError as exc:
        return type(exc), exc.reason, exc.start
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return trial_fields(result.records)


@pytest.mark.parametrize(
    "faults", [p for k in (1, 2, 3) for p in itertools.permutations(TRIAL_FAULTS, k)]
)
def test_trial_log_faults_raise_in_the_stream_order(tmp_path, faults):
    """The first faulty row raises, whether its fault is a bad cell, text the csv module cannot
    split or invalid UTF-8: faults in any order, on adjacent rows or apart, from a path and a
    text stream.  A path is decoded a block of io.DEFAULT_BUFFER_SIZE bytes at a time, so its
    invalid UTF-8 raises anywhere in a file of one block, and is not reached 300 rows below a
    fault: a bad row at line 2 raises before invalid UTF-8 or text the csv module cannot split
    that far below it."""
    good = GOOD_TRIAL_ROW.encode()
    path = tmp_path / "trials.csv"
    for gap in (0, 1, 300):
        rows = [TRIAL_FAULTS[fault] for fault in faults]  # the first at line 2
        data = TRIAL_LOG_HEADER.encode() + (good * gap).join(rows) + good * gap
        path.write_bytes(data)
        if gap < 300:  # one block holds all of a short file: a path's reader reaches it all
            assert len(data) < io.DEFAULT_BUFFER_SIZE
            reached = data
        else:  # no block holds both the first row and a fault 300 rows below it
            assert len(good * (gap - 1)) > io.DEFAULT_BUFFER_SIZE
            reached = TRIAL_LOG_HEADER.encode() + rows[0]
        sources = [(path, reached, True)]
        if b"\xff" not in data:
            sources.append((io.StringIO(data.decode()), data, False))
        for source, text, universal in sources:
            expected = undecodable_outcome(
                lambda d: reference_chunked(reference_read_trial_log_csv, d, 1, universal), text
            )
            got = undecodable_outcome(read_trial_log_csv, source)
            assert got == expected, (gap, type(source))


def test_trial_artifacts_stream_in_bounded_memory(tmp_path):
    """Writing the three artifacts of a trial log and reading it back holds one chunk at a
    time: beyond what the read returns, ten times the trials peak within 0.5 MiB."""

    def transient(trials):
        records = tuple(
            TrialRecord(i, 100 + i % 4 * 50, (f"f{i % 9}",), "t_ret_c_1", "MI",
                        f"2001-{1 + i % 12:02}-{1 + i % 28:02}", "NEUTRAL",
                        math.nan if i % 4 == 0 else i / trials, i % 4 == 0)
            for i in range(trials)
        )
        log = TrialLog(records, default_search_space(), 0, "2001-01-01T00:00:00+00:00", 1.0)
        tracemalloc.start()
        try:
            write_trial_log_csv(log, tmp_path / "trials.csv")
            write_trial_log_json(log, tmp_path / "trials.json")
            write_parallel_coordinates(log, tmp_path / "parallel_coordinates.csv")
            back = read_trial_log_csv(tmp_path / "trials.csv")
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(back.records) == trials
        return peak - retained

    assert transient(50_000) - transient(5_000) < 0.5 * 2**20


def test_trial_log_json_layout():
    """trials.json is the run record alone; the trials are trials.csv's."""
    frame = small_frame(24, seed=8)
    log = run_grid_search(frame, tiny_space(), seed=42)
    payload = json.loads(write_trial_log_json(log))
    assert set(payload) == {"space", "seed", "created_utc", "elapsed_s"}
    assert payload["seed"] == 42
    assert payload["space"]["window_sizes"] == [8, 9]
    assert payload["created_utc"] == log.created_utc
    assert payload["elapsed_s"] == log.elapsed_s


def test_degenerate_objectives_serialize_as_nan():
    frame = small_frame(30, seed=9)
    log = run_grid_search(frame, tiny_space(min_samples=100), seed=42)
    assert log.records and all(r.degenerate for r in log.records)
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
  "elapsed_s": 0.0
}
"""


def test_trial_writers_produce_the_golden_bytes():
    assert write_trial_log_csv(GOLDEN_LOG) == GOLDEN_TRIALS_CSV
    assert write_parallel_coordinates(GOLDEN_LOG) == GOLDEN_PARALLEL_COORDINATES
    assert write_trial_log_json(GOLDEN_LOG) == GOLDEN_TRIALS_JSON
    back = read_trial_log_csv(io.StringIO(GOLDEN_TRIALS_CSV)).records
    assert back[:2] == GOLDEN_LOG.records[:2]
    assert math.isnan(back[2].objective)
    assert back[2]._replace(objective=0.0) == GOLDEN_LOG.records[2]._replace(objective=0.0)
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
