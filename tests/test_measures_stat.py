import numpy as np
import pytest

from depscope.measures import (
    MeasureResult,
    distance_correlation,
    pearson,
    spearman,
)

from _oracles import brute_distance_correlation, brute_pearson, brute_spearman


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
    assert r.value_range == (-1.0, 1.0)
