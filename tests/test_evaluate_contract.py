"""Property tests of the evaluate_pairs contract.

On hostile input, for every measure id the call never raises: it returns a
finite value inside the measure's declared range, or a degenerate result
that says why.  Non-finite input is always degenerate.  On windows the
search codes, the discrete measures keep the identities of the paper: IG
equals MI, both ignore strictly increasing maps of the features, and a
single feature carries no synergy.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depscope.measures import MEASURE_IDS, VALUE_RANGES
from depscope.search import evaluate_pairs

values = st.one_of(
    st.sampled_from((0.0, 1.0, -1.0, 1e-200, 1e200, -1e200)),
    st.integers(-3, 3).map(float),  # small integers make ties
    st.floats(-1e200, 1e200, allow_nan=False),
)


@st.composite
def paired_windows(draw):
    n = draw(st.integers(2, 16))
    n_features = draw(st.integers(1, 4))
    horizon = draw(st.sampled_from((0, 2)))  # 0 means a pointwise target
    cells = n * n_features + n * max(horizon, 1)
    if draw(st.booleans()):
        flat = draw(st.lists(values, min_size=cells, max_size=cells))
    else:
        flat = [draw(values)] * cells
    if draw(st.booleans()):
        bad = draw(st.sampled_from((math.nan, math.inf, -math.inf)))
        flat[draw(st.integers(0, cells - 1))] = bad
    xs = np.array(flat[: n * n_features]).reshape(n, n_features)
    ys = np.array(flat[n * n_features :])
    if horizon:
        ys = ys.reshape(n, horizon)
    return xs, ys


@pytest.mark.parametrize("measure", MEASURE_IDS)
@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(pair=paired_windows())
def test_evaluate_pairs_scores_in_range_or_says_why(measure, pair):
    xs, ys = pair
    with np.errstate(all="ignore"):
        r = evaluate_pairs(measure, xs, ys)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        assert r.degenerate
    if r.degenerate:
        assert math.isnan(r.value)
        assert r.params.get("reason")
    else:
        lo, hi = VALUE_RANGES[measure]
        assert math.isfinite(r.value) and lo <= r.value <= hi


# Quarter steps make ties and keep distinct values far apart, so the maps
# below stay strictly increasing in float64 and move no equal-frequency edge
# across a value.
grid_values = st.integers(-40, 40).map(lambda k: k / 4)
INCREASING_MAPS = {
    "affine": lambda v: 3.0 * v - 7.0,
    "cube": lambda v: v**3,
    "exp": lambda v: np.exp(v / 8.0),
}


@st.composite
def search_windows(draw):
    """A window as the search scores it: 1-3 feature columns, a pointwise or
    joint-horizon target on coarse return steps, and a feature bin count."""
    n = draw(st.integers(2, 40))
    n_features = draw(st.integers(1, 3))
    horizon = draw(st.sampled_from((0, 2)))
    xs = draw(st.lists(grid_values, min_size=n * n_features, max_size=n * n_features))
    cells = n * max(horizon, 1)
    steps = draw(st.lists(st.integers(-6, 6), min_size=cells, max_size=cells))
    ys = 0.0013 * np.array(steps, dtype=np.float64)
    if horizon:
        ys = ys.reshape(n, horizon)
    bins = draw(st.sampled_from((2, 8, 12, 16)))
    return np.array(xs).reshape(n, n_features), ys, bins


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(window=search_windows())
def test_information_gain_equals_mutual_information(window):
    xs, ys, bins = window
    ig = evaluate_pairs("IG", xs, ys, feature_bins=bins)
    mi = evaluate_pairs("MI", xs, ys, feature_bins=bins)
    assert not (ig.degenerate or mi.degenerate)
    assert abs(ig.value - mi.value) <= 1e-12


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(window=search_windows(), name=st.sampled_from(sorted(INCREASING_MAPS)))
def test_mi_and_ig_ignore_strictly_increasing_feature_maps(window, name):
    xs, ys, bins = window
    mapped = INCREASING_MAPS[name](xs)
    for measure in ("MI", "IG"):
        before = evaluate_pairs(measure, xs, ys, feature_bins=bins)
        after = evaluate_pairs(measure, mapped, ys, feature_bins=bins)
        assert after.value == before.value


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(window=search_windows())
def test_single_feature_synergy_is_exactly_zero(window):
    xs, ys, bins = window
    r = evaluate_pairs("RSI_SYNERGY", xs[:, :1], ys, feature_bins=bins)
    assert not r.degenerate
    assert r.value == 0.0
