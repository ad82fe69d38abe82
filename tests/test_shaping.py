import numpy as np
import pytest

from depscope.frame import TimeSeriesFrame
from depscope.shaping import (
    discretize,
    make_sliding_windows,
    pair_arrays,
    pair_samples,
    window_count,
)

from _oracles import brute_window_anchors


def ramp_frame(n, n_features=2):
    """Columns hold their own row index, which makes leakage checks trivial."""
    ts = np.datetime64("2020-01-01") + np.arange(n)
    cols = {f"x{k}": np.arange(n, dtype=np.float64) + 1000.0 * k for k in range(n_features)}
    cols["y"] = np.arange(n, dtype=np.float64)
    return TimeSeriesFrame(timestamps=ts, columns=cols)


def test_window_count_formula():
    assert window_count(10, 4, 2, 2) == 3
    assert window_count(10, 4, 2, 7) == 0
    assert window_count(6, 3, 1, 3) == 1
    assert window_count(5, 3, 1, 3) == 0


def test_anchor_positions_match_enumeration():
    ds = make_sliding_windows(ramp_frame(10), ("x0",), "y", 4, 2, 2)
    assert list(ds.anchors) == [3, 5, 7]
    assert len(ds) == 3


def test_window_count_matches_brute_enumeration():
    for length in range(1, 40):
        for window in range(1, 10):
            for horizon in range(1, 10):
                for step in (1, 2, 3, 7):
                    expected = len(brute_window_anchors(length, window, step, horizon))
                    assert window_count(length, window, step, horizon) == expected


def test_sample_contents_and_no_leakage():
    """x rows stop at the anchor and y starts strictly after it."""
    frame = ramp_frame(24, n_features=3)
    ds = make_sliding_windows(frame, ("x0", "x2"), "y", 5, 3, 4)
    for sample in ds.samples:
        a = sample.anchor
        np.testing.assert_array_equal(sample.x_block[:, 0], np.arange(a - 4, a + 1))
        np.testing.assert_array_equal(
            sample.x_block[:, 1], np.arange(a - 4, a + 1) + 2000.0
        )
        np.testing.assert_array_equal(sample.y_horizon, np.arange(a + 1, a + 5))
        assert sample.x_block.max() % 1000 == a
        assert sample.y_horizon.min() == a + 1
        assert sample.anchor_time == frame.timestamps[a]


def test_dataset_format_marker():
    frame = ramp_frame(20)
    assert make_sliding_windows(frame, ("x0",), "y", 4, 1, 4).format == "X:Y"
    assert make_sliding_windows(frame, ("x0", "x1"), "y", 4, 1, 4).format == "S:Y"


def test_pointwise_pairing_same_offset_when_h_equals_w():
    ds = make_sliding_windows(ramp_frame(30), ("x0",), "y", 6, 5, 6)
    sample = ds.samples[0]
    xs, ys = pair_arrays(sample)
    assert xs.shape == (6, 1)
    np.testing.assert_array_equal(ys - xs[:, 0], np.full(6, 6.0))


def test_pointwise_pairing_wraps_short_horizons():
    ds = make_sliding_windows(ramp_frame(30), ("x0",), "y", 6, 5, 2)
    sample = ds.samples[0]
    a = sample.anchor
    _, ys = pair_arrays(sample)
    np.testing.assert_array_equal(ys, [a + 1, a + 2, a + 1, a + 2, a + 1, a + 2])


def test_pair_samples_returns_plain_tuples():
    ds = make_sliding_windows(ramp_frame(12), ("x0",), "y", 3, 2, 3)
    pairs = pair_samples(ds.samples[0])
    assert pairs == [((0.0,), 3.0), ((1.0,), 4.0), ((2.0,), 5.0)]


def test_bad_shaping_arguments():
    frame = ramp_frame(12)
    with pytest.raises(KeyError):
        make_sliding_windows(frame, ("nope",), "y", 3, 1, 3)
    with pytest.raises(KeyError):
        make_sliding_windows(frame, ("x0",), "nope", 3, 1, 3)
    with pytest.raises(ValueError):
        make_sliding_windows(frame, (), "y", 3, 1, 3)
    with pytest.raises(ValueError):
        make_sliding_windows(frame, ("x0",), "y", 0, 1, 3)
    with pytest.raises(ValueError):
        make_sliding_windows(frame, ("x0",), "y", 3, 0, 3)
    with pytest.raises(ValueError):
        make_sliding_windows(frame, ("x0",), "y", 3, 1, 0)


def test_len_is_cheap_even_when_windows_are_many():
    ds = make_sliding_windows(ramp_frame(5000), ("x0",), "y", 10, 1, 10)
    assert len(ds) == window_count(5000, 10, 1, 10)
    assert "samples" not in ds.__dict__  # len must not materialize the windows


def test_random_datasets_cover_every_admissible_anchor():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(2, 50))
        window = int(rng.integers(1, 8))
        horizon = int(rng.integers(1, 8))
        step = int(rng.integers(1, 6))
        expected = brute_window_anchors(n, window, step, horizon)
        if not expected:
            assert window_count(n, window, step, horizon) == 0
            continue
        ds = make_sliding_windows(ramp_frame(n), ("x0",), "y", window, step, horizon)
        assert list(ds.anchors) == expected
        for sample in ds.samples:
            assert sample.x_block.shape == (window, 1)
            assert sample.y_horizon.shape == (horizon,)


def test_discretize_known_values():
    d = discretize(np.array([0.0234, -0.0005, 0.0, 0.001]), 0.001)
    assert list(d) == [23, -1, 0, 1]


def test_discretize_input_checks():
    with pytest.raises(ValueError):
        discretize(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        discretize(np.array([np.nan]), 0.1)
    with pytest.raises(ValueError):
        discretize(np.array([[1.0]]), 0.1)


def test_discretize_refuses_symbols_beyond_int64():
    # 1e17 / 0.001 = 1e20 bins would wrap around int64 instead of failing.
    with pytest.raises(ValueError, match="int64"):
        discretize(np.linspace(1.0, 1e17, 200), 0.001)
    with pytest.raises(ValueError, match="int64"):
        discretize(np.array([0.0, 1e300]), 1e-300)
    d = discretize(np.array([-9.2e18, 9.2e18]), 1.0)
    assert list(d) == [-9200000000000000000, 9200000000000000000]


def test_discrete_series_is_locked():
    d = discretize(np.array([0.1, 0.2]), 0.1)
    assert isinstance(d, np.ndarray) and d.dtype == np.int64
    with pytest.raises(ValueError):
        d[0] = 9
