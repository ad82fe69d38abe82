"""Property tests of the evaluate_pairs contract.

On hostile input, for every measure id the call never raises: it returns a
finite value inside the measure's declared range, or a degenerate result
that says why.  Non-finite input is always degenerate.  On windows the
search codes, the discrete measures keep the identities of the paper: IG
equals MI, both ignore strictly increasing maps of the features, and a
single feature carries no synergy.  The correlation family keeps its own:
PC and DC are symmetric, PC flips sign with y, SC ignores strictly
increasing maps of x, and DC ignores a shift and a positive scale of x.
Each of these holds value for value, or both sides are degenerate.  On
finite pairs, evaluate_pairs agrees with each measure's own function: the
same value bits where it scores, and its reason or its ValueError's message
where it does not.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from depscope.measures import (
    MEASURE_IDS,
    VALUE_RANGES,
    distance_correlation,
    mic,
    pearson,
    pps,
    spearman,
)
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
    cells = n * n_features + n
    if draw(st.booleans()):
        flat = draw(st.lists(values, min_size=cells, max_size=cells))
    else:
        flat = [draw(values)] * cells
    if draw(st.booleans()):
        bad = draw(st.sampled_from((math.nan, math.inf, -math.inf)))
        flat[draw(st.integers(0, cells - 1))] = bad
    xs = np.array(flat[: n * n_features]).reshape(n, n_features)
    ys = np.array(flat[n * n_features :])
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
    """A window as the search scores it: 1-3 feature columns, a target on
    coarse return steps, and a feature bin count."""
    n = draw(st.integers(2, 40))
    n_features = draw(st.integers(1, 3))
    xs = draw(st.lists(grid_values, min_size=n * n_features, max_size=n * n_features))
    steps = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    ys = 0.0013 * np.array(steps, dtype=np.float64)
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


def _same_or_both_degenerate(a, b, tol=0.0):
    return (a.degenerate and b.degenerate) or (
        not (a.degenerate or b.degenerate) and abs(a.value - b.value) <= tol
    )


@pytest.mark.parametrize("measure", ("PC", "DC"))
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(pair=paired_windows())
def test_pc_and_dc_are_symmetric(measure, pair):
    xs, ys = pair
    x = xs[:, 0]
    with np.errstate(all="ignore"):
        forward = evaluate_pairs(measure, x, ys)
        swapped = evaluate_pairs(measure, ys, x)
    assert _same_or_both_degenerate(forward, swapped)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(pair=paired_windows())
def test_pc_flips_sign_with_y(pair):
    xs, ys = pair
    with np.errstate(all="ignore"):
        r = evaluate_pairs("PC", xs[:, :1], ys)
        flipped = evaluate_pairs("PC", xs[:, :1], -ys)
    assert (r.degenerate and flipped.degenerate) or (
        not (r.degenerate or flipped.degenerate) and flipped.value == -r.value
    )


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(window=search_windows(), name=st.sampled_from(sorted(INCREASING_MAPS)))
def test_sc_ignores_strictly_increasing_maps_of_x(window, name):
    xs, ys, _ = window
    x = xs[:, 0]
    before = evaluate_pairs("SC", x, ys)
    after = evaluate_pairs("SC", INCREASING_MAPS[name](x), ys)
    assert _same_or_both_degenerate(before, after)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    window=search_windows(),
    shift=st.floats(-100.0, 100.0),
    scale=st.floats(0.01, 100.0),
)
def test_dc_ignores_shift_and_positive_scale_of_x(window, shift, scale):
    xs, ys, _ = window
    before = evaluate_pairs("DC", xs, ys)
    after = evaluate_pairs("DC", scale * xs + shift, ys)
    assert _same_or_both_degenerate(before, after, tol=1e-7)


OWN_FUNCTIONS = {
    "PC": pearson, "SC": spearman, "DC": distance_correlation, "MIC": mic, "PPS": pps,
}
# Scales that reach each measure's refusals: distances and squared sums that underflow or
# overflow, and spans past float64.
SCALES = (1e-170, 1e-100, 1e80, 1e154, 1e200, 3e306, 1e308)


@st.composite
def finite_pairs(draw):
    """Finite windows of 2-40 rows and 1-2 feature columns: drawn cells, scaled normals with
    or without ties, or either with a constant target."""
    n = draw(st.integers(2, 40))
    n_features = draw(st.integers(1, 2))
    cells = n * (n_features + 1)
    if draw(st.booleans()):
        cell = st.one_of(grid_values, values)
        flat = np.array(draw(st.lists(cell, min_size=cells, max_size=cells)))
    else:
        scale = draw(st.one_of(st.just(1.0), st.sampled_from(SCALES)))
        flat = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(cells)
        if draw(st.booleans()):
            flat = np.round(flat * 2.0) / 2.0
        with np.errstate(over="ignore"):
            flat = np.nan_to_num(flat * scale, posinf=1.7e308, neginf=-1.7e308)
    xs = flat[: n * n_features].reshape(n, n_features)
    ys = flat[n * n_features :]
    if draw(st.booleans()):
        ys = np.full(n, ys[0])
    return xs, ys


@pytest.mark.parametrize("measure", OWN_FUNCTIONS)
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(pair=finite_pairs())
@example(pair=(np.zeros((0, 2)), np.zeros(0)))
@example(pair=(np.ones((1, 2)), np.ones(1)))
def test_evaluate_pairs_agrees_with_each_measures_own_function(measure, pair):
    """The value bits where the function scores, its reason where it flags the pair, and its
    ValueError's message as the reason where it raises; drawn pairs, and 0 and 1 rows."""
    xs, ys = pair
    if measure in ("PC", "SC", "MIC"):  # pairwise: one feature column
        xs = xs[:, 0]
    r = evaluate_pairs(measure, xs, ys)
    try:
        own = OWN_FUNCTIONS[measure](xs, ys)
    except ValueError as exc:
        assert r.degenerate and r.params["reason"] == str(exc)
        return
    if own.degenerate:
        assert r.degenerate and r.params["reason"] == own.params["reason"]
    else:
        assert not r.degenerate and repr(r.value) == repr(own.value)
