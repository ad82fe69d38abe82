"""Property test of the evaluate_pairs contract on hostile input.

For every measure id the call never raises: it returns a finite value
inside the measure's declared range, or a degenerate result that says why.
Non-finite input is always degenerate.
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
