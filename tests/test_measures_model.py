import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depscope.measures import model_based, pps
from depscope.measures.result import as_points

from _oracles import reference_fit


def fitted(X, y, max_depth, min_samples_leaf):
    """One tree's in-sample fitted values, grown as a stack of one."""
    xt = as_points(X).T[None]
    order = np.argsort(xt, axis=2, kind="stable")
    ys = np.asarray(y, dtype=np.float64)[None]
    return model_based._fit_stack(xt, ys, order, max_depth, min_samples_leaf)[0]


def test_depth_zero_is_the_mean_predictor():
    y = np.array([1.0, 2.0, 6.0])
    np.testing.assert_array_equal(fitted(np.arange(3.0), y, 0, 5), np.full(3, 3.0))


def test_single_split_recovers_a_step_function():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    y = np.array([0.0, 0.0, 0.0, 5.0, 5.0, 5.0])
    np.testing.assert_array_equal(fitted(x, y, 1, 1), y)
    leaves, _ = reference_fit(x[:, None], y, 1, 1)
    assert leaves == [3, 3]


def test_pure_target_never_splits():
    y = np.zeros(10)
    np.testing.assert_array_equal(fitted(np.arange(10.0), y, 4, 1), y)
    assert reference_fit(np.arange(10.0)[:, None], y, 4, 1)[0] == [10]


def test_min_samples_leaf_is_respected():
    """Every leaf of the reference tree keeps min_leaf rows, and the grower fits its values;
    rows of equal fitted value, one leaf or more, are at least min_leaf too."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 2))
    y = rng.standard_normal(40)
    for min_leaf in (1, 3, 7):
        leaves, predictions = reference_fit(X, y, 6, min_leaf)
        assert len(leaves) > 1
        assert min(leaves) >= min_leaf
        values = fitted(X, y, 6, min_leaf)
        assert values.tobytes() == predictions.tobytes()
        assert np.unique(values, return_counts=True)[1].min() >= min_leaf


def test_tie_break_prefers_the_lowest_feature_index():
    """Each column's one split point leaves a child SSE of exactly 2.0: feature 0's wins."""
    y = np.array([0.0, 1.0, 2.0, 3.0])
    first, last = np.array([0.0, 1.0, 1.0, 1.0]), np.array([0.0, 0.0, 0.0, 1.0])
    np.testing.assert_array_equal(fitted(np.column_stack([first, last]), y, 1, 1), [0, 2, 2, 2])
    np.testing.assert_array_equal(fitted(np.column_stack([last, first]), y, 1, 1), [1, 1, 1, 3])


def test_training_sse_never_increases_with_depth():
    """Each split strictly reduces summed squared error, so deeper is never worse there."""
    rng = np.random.default_rng(1)
    for _ in range(20):
        X = rng.standard_normal((60, 3))
        y = X[:, 0] - 2.0 * (X[:, 1] > 0) + rng.standard_normal(60) * 0.5
        sses = [float(np.sum((y - fitted(X, y, d, 2)) ** 2)) for d in range(6)]
        for shallow, deep in zip(sses, sses[1:]):
            assert deep <= shallow + 1e-9


def test_deep_tree_with_unit_leaves_memorizes_distinct_rows():
    rng = np.random.default_rng(2)
    x = rng.permutation(16).astype(float)
    y = rng.standard_normal(16)
    np.testing.assert_allclose(fitted(x, y, 16, 1), y, atol=1e-12)


@pytest.mark.parametrize(
    "X, y, kwargs, message",
    (
        (np.zeros((3, 1)), np.zeros(4), {}, "row count"),
        (np.zeros((0, 1)), np.zeros(0), {}, "non-empty"),
        (np.zeros(3), np.arange(3.0), {"max_depth": -1}, "max_depth"),
        (np.zeros(3), np.arange(3.0), {"min_samples_leaf": 0}, "min_samples_leaf"),
        (np.zeros(3), np.arange(3.0), {"min_samples_leaf": -3}, "min_samples_leaf"),
    ),
    ids=("rows", "empty", "depth", "leaf-0", "leaf-minus-3"),
)
def test_pps_input_checks(X, y, kwargs, message):
    with pytest.raises(ValueError, match=message):
        pps(X, y, **kwargs)


def test_median_mae_hand_values():
    """Each row's mean absolute error of always predicting its median."""
    for row, mae in (([0.0, 10.0], 5.0), ([1.0, 2.0, 3.0, 100.0], 25.0), ([7.0], 0.0)):
        assert model_based._median_mae(np.array([row])).tolist() == [mae]


def test_pps_perfect_step_fit_scores_one():
    x = np.array([0.0, 0.0, 1.0, 1.0])
    y = np.array([5.0, 5.0, 9.0, 9.0])
    r = pps(x, y, max_depth=1, min_samples_leaf=1)
    assert r.value == 1.0
    assert r.params["mae_model"] == 0.0


def test_pps_mean_predictor_on_symmetric_target_scores_zero():
    r = pps(np.arange(4.0), np.array([0.0, 1.0, 2.0, 3.0]), max_depth=0)
    assert r.value == 0.0
    assert r.params["raw"] == 0.0


def test_pps_constant_target_is_degenerate():
    r = pps(np.arange(8.0), np.full(8, 3.0))
    assert r.degenerate
    assert r.params["reason"] == "constant target"
    assert np.isnan(r.value)


def test_pps_worse_than_baseline_floors_at_zero():
    # The mean predictor on a skewed target does worse than the median.
    rng = np.random.default_rng(3)
    for _ in range(20):
        X = rng.standard_normal((40, 2))
        y = rng.exponential(size=40)
        r = pps(X, y, max_depth=0)
        assert r.params["raw"] < 0.0
        assert r.value == 0.0


def test_pps_beats_noise_on_real_structure():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((80, 1))
    y = np.where(X[:, 0] > 0.0, 4.0, -4.0) + rng.standard_normal(80) * 0.1
    strong = pps(X, y)
    weak = pps(X, rng.standard_normal(80))
    assert strong.value > 0.8
    assert strong.value > weak.value


def test_pps_is_deterministic():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((50, 2))
    y = X[:, 0] + rng.standard_normal(50) * 0.4
    a = pps(X, y)
    b = pps(X, y)
    assert a.value == b.value
    assert a.params == b.params


def test_pps_refuses_targets_whose_squared_sums_overflow():
    x = np.random.default_rng(6).standard_normal(200)
    assert not pps(x, x * 1e150).degenerate  # (sum |y|)^2 stays finite
    with pytest.raises(ValueError, match="overflow"):
        pps(x, x * 1e200)


def test_pps_refuses_non_finite_input():
    x = np.random.default_rng(0).standard_normal(200)
    y = x * x
    for bad in (np.nan, np.inf):
        x_bad = x.copy()
        x_bad[5] = bad
        y_bad = y.copy()
        y_bad[5] = bad
        for X, target in ((x_bad, y), (x_bad[:, None], y), (x, y_bad)):
            with pytest.raises(ValueError, match="not finite"):
                pps(X, target)
        # A constant target must not hide the bad feature behind "constant target".
        with pytest.raises(ValueError, match="not finite"):
            pps(x_bad, np.ones(200))


COLUMN_KINDS = st.lists(
    st.sampled_from(("continuous", "rounded", "constant", "copy")), min_size=1, max_size=3
)


def _problem(kinds, n, rounded, rng):
    """Feature columns of the given kinds and a target, n rows each."""
    columns = []
    for kind in kinds:
        column = rng.standard_normal(n)
        if kind == "rounded":
            column = np.round(column)
        elif kind == "constant":
            column = np.full(n, column[0])
        elif kind == "copy" and columns:
            column = columns[-1].copy()
        columns.append(column)
    y = rng.standard_normal(n)
    return np.column_stack(columns), np.round(y) if rounded else y


@st.composite
def split_problems(draw):
    """Up to 80 rows of 1-3 feature columns, each continuous, rounded, constant or a copy.

    Rounded columns and targets tie neighbours and child SSEs, and a copied
    column ties whole features, so both tie-break rules are exercised.
    """
    n, kinds = draw(st.integers(2, 80)), draw(COLUMN_KINDS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return *_problem(kinds, n, draw(st.booleans()), rng), draw(st.integers(1, 10))


@st.composite
def tree_stacks(draw):
    """1-25 anchors of split_problems' kinds, all of n rows and the same column kinds."""
    n, kinds, rounded = draw(st.integers(2, 80)), draw(COLUMN_KINDS), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    problems = [_problem(kinds, n, rounded, rng) for _ in range(draw(st.integers(1, 25)))]
    xs, ys = map(np.stack, zip(*problems))
    return xs, ys, draw(st.integers(1, 10))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(problem=split_problems())
def test_split_scan_is_the_reference_loop_bit_for_bit(problem):
    """The presorted grower fits the node-by-node reference tree's in-sample predictions."""
    xs, ys, min_leaf = problem
    for depth in range(5):
        _, predictions = reference_fit(xs, ys, depth, min_leaf)
        assert fitted(xs, ys, depth, min_leaf).tobytes() == predictions.tobytes()
        result = pps(xs, ys, depth, min_leaf)
        if not result.degenerate:
            assert result.params["mae_model"] == float(np.mean(np.abs(ys - predictions)))


@pytest.mark.parametrize(
    "lower, upper",
    (
        (np.nextafter(1.0, np.inf), np.nextafter(np.nextafter(1.0, np.inf), np.inf)),
        (1.70e308, 1.75e308),
    ),
)
def test_pps_splits_neighbours_whose_midpoint_rounds_up_or_overflows(lower, upper):
    """(lower + upper) / 2 is upper itself, or inf: the rows still split 5/5, unwarned."""
    x = np.repeat([lower, upper], 5)
    y = np.repeat([0.0, 1.0], 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = pps(x, y)
    assert result.value == 1.0


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(stack=tree_stacks())
def test_stacked_trees_are_the_reference_trees_bit_for_bit(stack):
    """Trees grown together, level by level, fit each anchor's node-by-node reference tree's
    in-sample predictions byte for byte."""
    xs, ys, min_leaf = stack
    xt = xs.transpose(0, 2, 1)
    order = np.argsort(xt, axis=2, kind="stable")
    for depth in range(5):
        values = model_based._fit_stack(xt, ys, order, depth, min_leaf)
        for i in range(ys.shape[0]):
            _, predictions = reference_fit(xs[i], ys[i], depth, min_leaf)
            assert values[i].tobytes() == predictions.tobytes()


segment_values = st.sampled_from((1.0, 1e-300, 1e150, 3.0))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    lengths=st.lists(st.integers(0, 1100), min_size=1, max_size=6),
    scale=segment_values,
    seed=st.integers(0, 2**32 - 1),
)
def test_segment_sums_are_numpys_sums_bit_for_bit(lengths, scale, seed):
    """Each segment sums as np.add.reduce sums that slice, in any layout of segments: signed
    zeros, magnitudes far apart and runs past numpy's 128-entry pairwise blocks included."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(sum(lengths)) * scale * 10.0 ** rng.integers(-8, 9, sum(lengths))
    values[rng.random(values.size) < 0.2] = -0.0
    starts = np.cumsum(lengths) - lengths
    counts = np.array(lengths)
    # The same segments, then each twice and empty ones too, shuffled, at starts that overlap;
    # and no segment at all, as a stack of constant targets asks.
    again = rng.permutation(np.concatenate([counts, counts, [0, 0]]))
    anywhere = rng.integers(0, values.size - again + 1)
    for starts, counts in ((starts, counts), (anywhere, again), (anywhere[:0], again[:0])):
        sums = model_based._sums(values, starts, counts)
        assert sums.shape == counts.shape
        for i, (start, length) in enumerate(zip(starts, counts)):
            assert sums[i : i + 1].tobytes() == np.add.reduce(values[start : start + length]).tobytes()


def test_the_grower_holds_no_padded_copy_of_its_sums():
    """Node totals gather each entry once: 20 anchors x 400 rows grow in at most 1.5 MiB
    (1.74 MiB when every pairwise run of a level was padded to its longest)."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 400))
    ys = np.sin(x) + 0.3 * rng.standard_normal((20, 400))
    xt = x[:, None, :]
    order = np.argsort(xt, axis=2, kind="stable")
    tracemalloc.start()
    try:
        model_based._fit_stack(xt, ys, order, 4, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20
