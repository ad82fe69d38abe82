import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist as scipy_cdist
from scipy.stats import rankdata

from depscope.frame import TimeSeriesFrame
from depscope.measures import (
    VALUE_RANGES,
    MeasureResult,
    degenerate_result,
    distance_correlation,
    pearson,
    spearman,
    statistical,
)
from depscope.search import evaluate_pairs, scan_window
from depscope.shaping import pair_targets

from _oracles import (
    brute_distance_correlation,
    brute_pearson,
    brute_spearman,
    reference_correlation,
    reference_distance_correlation,
)


def test_pearson_hand_value():
    r = pearson([1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 5.0, 9.0])
    assert r.measure_id == "PC"
    assert r.sample_size == 4
    assert r.value == pytest.approx(brute_pearson([1, 2, 3, 4], [2, 4, 5, 9]), abs=1e-12)


def test_pearson_exact_on_scaled_copies():
    """Copies, negations and power-of-two scalings hit +/-1.0 bit for bit."""
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.standard_normal(int(rng.integers(2, 200)))
        assert pearson(x, x).value == 1.0
        assert pearson(x, -x).value == -1.0
        assert pearson(x, 4.0 * x).value == 1.0
        assert pearson(x, -0.5 * x).value == -1.0


def test_pearson_general_affine_stays_clipped_near_one():
    """Rounding in a*x + b may shave an ulp but never escapes [-1, 1]."""
    rng = np.random.default_rng(20)
    for _ in range(50):
        x = rng.standard_normal(int(rng.integers(2, 200)))
        a = rng.uniform(0.1, 5.0)
        b = rng.standard_normal()
        up = pearson(x, a * x + b).value
        down = pearson(x, -a * x + b).value
        assert up == pytest.approx(1.0, abs=1e-12)
        assert down == pytest.approx(-1.0, abs=1e-12)
        assert -1.0 <= down <= up <= 1.0


def test_pearson_constant_input_is_degenerate():
    r = pearson([3.0, 3.0, 3.0], [1.0, 2.0, 3.0])
    assert r.degenerate
    assert np.isnan(r.value)
    assert "variance" in r.params["reason"]
    # For 0.1, 1/3 and 0.0005 the mean rounds, so the sum of squares is ~1e-33, not 0.
    y = np.random.default_rng(1).standard_normal(100)
    for c in (0.1, 1 / 3, 0.0005, 7.0, 1e-9):
        assert pearson(np.full(100, c), y).params["reason"] == "zero variance"
        assert pearson(y, np.full(100, c)).params["reason"] == "zero variance"


def test_correlations_refuse_non_finite_sums():
    # A NaN r used to be clamped to -1.0, and 1e200-scale sums of squares overflow.
    x = np.random.default_rng(0).standard_normal(50)
    with pytest.raises(ValueError, match="not finite"):
        pearson(x * 1e200, x * 1e200)
    with pytest.raises(ValueError, match="not finite"):
        pearson(np.append(x[:-1], np.nan), x)
    with pytest.raises(ValueError, match="not finite"):
        spearman(np.append(x[:-1], np.nan), x)
    # Squared deviations of 1e-170 underflow to 0.0, yet the column is not constant.
    tiny = [0.0, 1e-170, 2e-170, 3e-170]
    with pytest.raises(ValueError, match="not finite"):
        pearson(tiny, [1.0, 2.0, 3.0, 5.0])
    assert spearman(tiny, [1.0, 2.0, 3.0, 5.0]).value == 1.0


def test_pearson_rejects_bad_shapes():
    with pytest.raises(ValueError):
        pearson([1.0], [1.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])


def test_pearson_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 60))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n) + 0.3 * x
        assert pearson(x, y).value == pytest.approx(brute_pearson(list(x), list(y)), abs=1e-9)


def test_spearman_hand_value():
    assert spearman([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]).value == -0.5


def test_spearman_exact_on_monotone_pairs():
    rng = np.random.default_rng(2)
    for _ in range(30):
        x = rng.standard_normal(int(rng.integers(3, 100)))
        assert spearman(x, np.exp(x)).value == 1.0
        assert spearman(x, -np.exp(x)).value == -1.0


def test_spearman_refuses_infinities_as_every_measure_function_does():
    """Infinite input ranks like any other value; spearman raises as pearson does, and as
    evaluate_pairs flags it."""
    for x, y in (([1.0, 2.0, math.inf, 4.0], [1.0, 2.0, 3.0, 4.0]),
                 ([1.0, 2.0, 3.0], [-math.inf, 0.0, math.inf])):
        for measure in (pearson, spearman):
            with pytest.raises(ValueError, match="not finite"):
                measure(x, y)
        assert evaluate_pairs("SC", x, y).params["reason"] == "non-finite input"


def test_spearman_ties_use_average_ranks():
    x = [1.0, 1.0, 2.0, 3.0]
    y = [10.0, 20.0, 30.0, 40.0]
    r = spearman(x, y)
    assert r.params["ties"] == "average"
    assert r.value == pytest.approx(brute_spearman(x, y), abs=1e-12)


def test_spearman_matches_oracle_with_ties():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(3, 40))
        x = rng.integers(0, 6, n).astype(float)
        y = rng.integers(0, 6, n).astype(float)
        expected = brute_spearman(list(x), list(y))
        got = spearman(x, y)
        if expected is None:
            assert got.degenerate
        else:
            assert got.value == pytest.approx(expected, abs=1e-9)


def test_distance_correlation_hand_checked_range():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(40)
    r = distance_correlation(x, x * 2.0 + 1.0)
    assert r.value == pytest.approx(1.0, abs=1e-9)


def test_distance_correlation_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(3, 25))
        x = rng.standard_normal(n)
        y = 0.5 * x**2 + rng.standard_normal(n) * 0.2
        assert distance_correlation(x, y).value == pytest.approx(
            brute_distance_correlation(list(x), list(y)), abs=1e-9
        )


def test_distance_correlation_multivariate_rows():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((30, 3))
    y = np.column_stack([x[:, 0] + x[:, 1], x[:, 2] * 2.0])
    r = distance_correlation(x, y)
    assert r.value == pytest.approx(brute_distance_correlation(x.tolist(), y.tolist()), abs=1e-9)
    assert 0.0 <= r.value <= 1.0


def test_distance_correlation_detects_even_coupling():
    """The canonical case linear correlation misses."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal(150)
    y = x**2
    assert abs(pearson(x, y).value) < 0.3
    assert distance_correlation(x, y).value > 0.4


def test_distance_correlation_constant_side_is_degenerate():
    r = distance_correlation(np.ones(10), np.arange(10.0))
    assert r.degenerate
    assert "distance variance" in r.params["reason"]
    # Distances of 1e-170-scale points underflow to zero; that is not constancy.
    with pytest.raises(ValueError, match="underflow"):
        distance_correlation(np.arange(10) * 1e-170, np.arange(10.0))


@pytest.mark.parametrize("scale", (1e-170, 1.0, 1e154))
def test_centring_in_place_is_the_expression_bit_for_bit(scale):
    """d -= row; d -= col; d += grand is d - row - col + d.mean(), with underflow and overflow."""
    points = np.random.default_rng(4).standard_normal((50, 2)) * scale
    with np.errstate(over="ignore", invalid="ignore"):
        d = statistical.cdist(points, points)
        expected = d - d.mean(axis=1, keepdims=True) - d.mean(axis=0, keepdims=True) + d.mean()
        dvar = float((expected * expected).mean())
    if scale == 1e154:
        assert math.isnan(dvar)
        with pytest.raises(ValueError, match="^distances overflow$"):
            statistical._centered_distances(points, False, np.empty((50, 50)))
        return
    centred, got = statistical._centered_distances(points, False, np.empty((50, 50)))
    assert centred.tobytes() == expected.tobytes()
    assert np.float64(got).tobytes() == np.float64(dvar).tobytes()


def test_distance_correlation_independence_stays_low():
    """Biased V-statistic: small positive values expected, median well below 0.15."""
    rng = np.random.default_rng(8)
    values = [
        distance_correlation(rng.standard_normal(200), rng.standard_normal(200)).value
        for _ in range(40)
    ]
    assert float(np.median(values)) < 0.15


def test_results_are_measure_records():
    r = pearson([1.0, 2.0], [2.0, 1.0])
    assert isinstance(r, MeasureResult)
    assert VALUE_RANGES[r.measure_id] == (-1.0, 1.0)


def test_distance_correlation_refuses_non_finite_input():
    x = np.random.default_rng(0).standard_normal(200)
    y = x * x
    for bad in (np.nan, np.inf):
        x_bad = x.copy()
        x_bad[5] = bad
        for pair in ((x_bad, y), (y, x_bad), (np.column_stack([x, x_bad]), y)):
            with pytest.raises(ValueError, match="not finite"):
                distance_correlation(*pair)


rank_values = st.one_of(
    st.integers(-3, 3).map(float),  # small integers make ties
    st.sampled_from((math.inf, -math.inf, math.nan)),
    st.floats(allow_nan=False),
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(values=st.lists(rank_values, min_size=1, max_size=60))
def test_average_ranks_are_scipys_bit_for_bit(values):
    a = np.array(values)
    ranks = statistical._average_ranks(a)
    assert ranks.dtype == np.float64
    assert np.array_equal(ranks, rankdata(a, method="average"), equal_nan=True)
    # A given sort order is the one the ranks read.
    order = np.argsort(a, kind="stable")
    assert statistical._average_ranks(a, order).tobytes() == ranks.tobytes()
    if np.isnan(a).any():
        assert np.isnan(ranks).all()
    # Stacked rows are ranked each on its own.
    rows = np.stack([a, a[::-1], np.sort(a)])
    assert statistical._average_ranks(rows).tobytes() == np.stack(
        [ranks, ranks[::-1], statistical._average_ranks(np.sort(a))]
    ).tobytes()


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(1, 60),
    n_columns=st.integers(1, 3),
    scale=st.sampled_from((1e-170, 1.0, 1e154, 1e200)),
    rounded=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_distances_are_scipys_bit_for_bit(n, n_columns, scale, rounded, seed):
    """Same sums in the same order: underflow at 1e-170 and overflow at 1e154 and up included."""
    points = np.random.default_rng(seed).standard_normal((n, n_columns))
    if rounded:
        points = np.round(points, 1)
    points *= scale
    with np.errstate(over="ignore"):
        assert np.array_equal(statistical.cdist(points, points), scipy_cdist(points, points))


ROW_KINDS = ("continuous", "ties", "constant", "huge", "tiny")


def _row(kind, n, rng):
    values = rng.standard_normal(n)
    if kind == "ties":
        return np.round(values)
    if kind == "constant":
        return np.full(n, values[0])
    if kind == "huge":  # sxx near 1e602: the product of two overflows
        return values * 1e300
    if kind == "tiny":  # sxx near 1e-340: the product underflows to zero
        return values * 1e-170
    return values


@st.composite
def row_pairs(draw):
    """Two (A, n) matrices, A in 1-12, each row continuous, tied, constant, huge or tiny."""
    a, n = draw(st.integers(1, 12)), draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, y = (
        np.stack([_row(draw(st.sampled_from(ROW_KINDS)), n, rng) for _ in range(a)])
        for _ in range(2)
    )
    return x, y


def _outcome(score, *args):
    try:
        return repr(score(*args))
    except ValueError as exc:
        return f"ValueError({exc})"


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(pair=row_pairs())
def test_stacked_correlations_score_each_row_as_one_pair(pair):
    """PC and SC of a block's rows equal pearson and spearman of each row pair, value by repr
    and reason, and the value is the one-pair arithmetic's, bit for bit."""
    x, y = pair
    ranked = statistical._average_ranks(x), statistical._average_ranks(y)
    for measure, score, sides in (("PC", pearson, (x, y)), ("SC", spearman, ranked)):
        values, checks = statistical._correlations(measure, *sides)
        for i in range(x.shape[0]):
            reason = next((reason for mask, reason in checks if mask[i]), "")
            expected = reference_correlation(sides[0][i], sides[1][i])
            if expected == "refused":
                assert reason == "sums of squares are not finite and positive"
                assert _outcome(score, x[i], y[i]) == f"ValueError({reason})"
                continue
            r = score(x[i], y[i])
            if expected == "constant":
                assert "zero" in reason and r.degenerate and r.params["reason"] == reason
            else:
                assert not reason and repr(r.value) == repr(float(values[i]))
                assert values[i] == expected


# Values whose differences straddle the bounds of the exact |xi - xj| path: gaps just below
# and at 2**-511, spans just below, at and above 2**511, one that overflows, and signed zeros.
PLANTED_PAIRS = (
    (0.0, np.nextafter(statistical.EXACT_LOW, 0.0)),
    (0.0, statistical.EXACT_LOW),
    (-statistical.EXACT_LOW, 0.0),
    (0.0, np.nextafter(statistical.EXACT_HIGH, 0.0)),
    (0.0, statistical.EXACT_HIGH),
    (-statistical.EXACT_HIGH, statistical.EXACT_HIGH),
    (-1e300, 1e300),
    (0.0, -0.0),
)


@st.composite
def distance_columns(draw, n=st.integers(2, 40)):
    """A finite column: normal values at one scale, rounded to ties or not, with up to two
    PLANTED_PAIRS at drawn rows.  At 1e-160 squared differences are subnormal, at 1e-170
    they underflow to zero and from 1e154 up some overflow."""
    size = draw(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal(size)
    if draw(st.booleans()):
        values = np.round(values)
    values *= draw(st.sampled_from((1e-170, 1e-160, 1e-150, 1.0, 1e153, 1e154)))
    for pair in draw(st.lists(st.sampled_from(PLANTED_PAIRS), max_size=2)):
        rows = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
        values[rows] = pair
    return values


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(x=distance_columns())
def test_one_column_distances_are_scipys_bit_for_bit(x):
    """The guard passes exactly the columns none of whose non-zero differences is below
    2**-511 or at 2**511 and up, and the distances it picks are scipy's bit for bit."""
    with np.errstate(over="ignore"):
        differences = np.abs(np.subtract.outer(x, x))
    exact = bool(statistical._abs_is_cdist(np.sort(x)))
    assert exact == bool(
        ((differences == 0.0) | (statistical.EXACT_LOW <= differences)).all()
        and (differences < statistical.EXACT_HIGH).all()
    )
    points = x[:, None]
    with np.errstate(over="ignore"):
        got = statistical._distances(points, exact)
        assert got.tobytes() == scipy_cdist(points, points).tobytes()


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    x=distance_columns(n=st.just(60)),
    y=distance_columns(n=st.just(60)),
    window=st.sampled_from((2, 3, 9, 20)),
)
def test_distance_correlation_is_the_cdist_reference_by_repr(x, y, window):
    """DC of distance_correlation and of every anchor of a scan equals DC in cdist's and
    ndarray.mean's arithmetic, by repr, on planted gaps, spans, ties and signed zeros."""
    assert _outcome(distance_correlation, x, y) == _outcome(reference_distance_correlation, x, y)
    frame = TimeSeriesFrame(np.datetime64("2020-01-01") + np.arange(60), {"x": x, "y": y})
    anchors, values, reasons = scan_window(
        frame, window, (("x",),), ("y",), ("DC",), step=window, horizon=window,
        bin_width=0.001, feature_bins=8,
    )
    for anchor, (value,), (reason,) in zip(anchors.tolist(), values.tolist(), reasons.tolist()):
        xs = x[anchor - window + 1 : anchor + 1]
        ys = pair_targets(y[anchor + 1 : anchor + 1 + window], window)
        try:
            expected = reference_distance_correlation(xs, ys)
        except ValueError as exc:
            expected = degenerate_result("DC", window, str(exc))
        assert (repr(value), reason) == (repr(expected.value), expected.params.get("reason", ""))
