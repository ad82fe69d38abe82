import numpy as np
import pytest

from depscope.measures import (
    RegressionTree,
    fit_regression_tree,
    naive_median_mae,
    pps,
)


def training_sse(tree, X, y):
    residual = np.asarray(y, dtype=np.float64) - tree.predict(X)
    return float(residual @ residual)


def test_depth_zero_is_the_mean_predictor():
    y = np.array([1.0, 2.0, 6.0])
    tree = fit_regression_tree(np.arange(3.0), y, max_depth=0)
    assert tree.depth() == 0
    assert tree.leaf_count() == 1
    np.testing.assert_array_equal(tree.predict(np.arange(3.0)), np.full(3, 3.0))


def test_single_split_recovers_a_step_function():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    y = np.array([0.0, 0.0, 0.0, 5.0, 5.0, 5.0])
    tree = fit_regression_tree(x, y, max_depth=1, min_samples_leaf=1)
    assert tree.depth() == 1
    assert tree.leaf_count() == 2
    assert tree.root.threshold == pytest.approx(3.5)
    np.testing.assert_array_equal(tree.predict(x), y)


def test_pure_target_never_splits():
    tree = fit_regression_tree(np.arange(10.0), np.zeros(10), max_depth=4, min_samples_leaf=1)
    assert tree.leaf_count() == 1


def test_min_samples_leaf_is_respected():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 2))
    y = rng.standard_normal(40)
    for min_leaf in (1, 3, 7):
        tree = fit_regression_tree(X, y, max_depth=6, min_samples_leaf=min_leaf)

        def smallest(node):
            if node.is_leaf:
                return node.samples
            return min(smallest(node.left), smallest(node.right))

        assert smallest(tree.root) >= min_leaf


def test_left_branch_takes_values_at_or_below_threshold():
    x = np.array([0.0, 0.0, 1.0, 1.0])
    y = np.array([2.0, 2.0, 8.0, 8.0])
    tree = fit_regression_tree(x, y, max_depth=1, min_samples_leaf=1)
    assert tree.predict(np.array([tree.root.threshold]))[0] == 2.0


def test_tie_break_prefers_the_lowest_feature_index():
    x0 = np.array([0.0, 0.0, 1.0, 1.0])
    X = np.column_stack([x0, x0])  # identical columns, identical split gains
    y = np.array([1.0, 1.0, 3.0, 3.0])
    tree = fit_regression_tree(X, y, max_depth=1, min_samples_leaf=1)
    assert tree.root.feature == 0


def test_training_sse_never_increases_with_depth():
    """Each split strictly reduces summed squared error, so deeper is never worse there."""
    rng = np.random.default_rng(1)
    for _ in range(20):
        X = rng.standard_normal((60, 3))
        y = X[:, 0] - 2.0 * (X[:, 1] > 0) + rng.standard_normal(60) * 0.5
        sses = [
            training_sse(fit_regression_tree(X, y, max_depth=d, min_samples_leaf=2), X, y)
            for d in range(6)
        ]
        for shallow, deep in zip(sses, sses[1:]):
            assert deep <= shallow + 1e-9


def test_deep_tree_with_unit_leaves_memorizes_distinct_rows():
    rng = np.random.default_rng(2)
    x = rng.permutation(16).astype(float)
    y = rng.standard_normal(16)
    tree = fit_regression_tree(x, y, max_depth=16, min_samples_leaf=1)
    np.testing.assert_allclose(tree.predict(x), y, atol=1e-12)


def test_predict_checks_feature_count():
    tree = fit_regression_tree(np.zeros((4, 2)), np.arange(4.0), max_depth=1)
    with pytest.raises(ValueError):
        tree.predict(np.zeros((4, 3)))


def test_fit_input_checks():
    with pytest.raises(ValueError):
        fit_regression_tree(np.zeros((3, 1)), np.zeros(4))
    with pytest.raises(ValueError):
        fit_regression_tree(np.zeros((0, 1)), np.zeros(0))
    with pytest.raises(ValueError):
        fit_regression_tree(np.zeros(3), np.zeros(3), max_depth=-1)
    with pytest.raises(ValueError):
        fit_regression_tree(np.zeros(3), np.zeros(3), min_samples_leaf=0)


def test_naive_median_mae_hand_values():
    assert naive_median_mae([0.0, 10.0]) == 5.0
    assert naive_median_mae([1.0, 2.0, 3.0, 100.0]) == 25.0
    assert naive_median_mae([7.0]) == 0.0


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


def test_tree_record_fields():
    tree = fit_regression_tree(np.arange(6.0), np.arange(6.0), max_depth=2, min_samples_leaf=1)
    assert isinstance(tree, RegressionTree)
    assert tree.n_features == 1
    assert tree.max_depth == 2
    assert tree.root.samples == 6


def test_fit_refuses_targets_whose_squared_sums_overflow():
    x = np.random.default_rng(6).standard_normal(200)
    fit_regression_tree(x, x * 1e150)  # (sum |y|)^2 stays finite
    with pytest.raises(ValueError, match="overflow"):
        fit_regression_tree(x, x * 1e200)
    with pytest.raises(ValueError, match="overflow"):
        pps(x, x * 1e200)
