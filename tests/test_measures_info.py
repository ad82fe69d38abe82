import math

import numpy as np
import pytest

from depscope.measures import (
    DiscreteDistribution,
    JointHistogram,
    conditional_entropy,
    entropy,
    equal_frequency_symbols,
    information_gain,
    mic,
    mutual_information,
    redundancy_synergy_index,
)

from _oracles import (
    brute_conditional_entropy,
    brute_entropy,
    brute_equal_frequency,
    brute_information_gain,
    brute_mi,
    brute_mic,
    brute_synergy,
)


def test_entropy_hand_values():
    assert entropy(DiscreteDistribution({"a": 0.5, "b": 0.25, "c": 0.25})) == 1.5
    assert entropy(DiscreteDistribution({k: 0.25 for k in "abcd"})) == 2.0
    assert entropy(DiscreteDistribution({"only": 1.0})) == 0.0


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution({})
    with pytest.raises(ValueError):
        DiscreteDistribution({"a": -0.1, "b": 1.1})
    with pytest.raises(ValueError):
        DiscreteDistribution({"a": 0.4, "b": 0.4})
    with pytest.raises(ValueError):
        DiscreteDistribution({"a": float("nan"), "b": 1.0})


def test_distribution_from_symbols_counts():
    d = DiscreteDistribution.from_symbols(["x", "y", "x", "x"])
    assert d.probabilities == {"x": 0.75, "y": 0.25}


def test_numpy_symbols_are_canonicalized():
    d = DiscreteDistribution.from_symbols(np.array([1, 1, 2], dtype=np.int64))
    assert set(d.probabilities) == {1, 2}
    j = JointHistogram.from_symbols(np.array([0, 1]), np.array([1, 0]))
    assert all(isinstance(k[0], int) for k in j.counts)


def test_joint_histogram_validation():
    with pytest.raises(ValueError):
        JointHistogram({}, 0)
    with pytest.raises(ValueError):
        JointHistogram({(0, 0): 3}, 4)
    with pytest.raises(ValueError):
        JointHistogram.from_symbols([0, 1], [0])


def test_conditional_entropy_hand_value():
    joint = JointHistogram({(0, 0): 2, (1, 0): 2, (0, 1): 4}, 8)
    assert conditional_entropy(joint) == 0.5


def test_mutual_information_hand_value():
    joint = JointHistogram({(0, 0): 4, (0, 1): 2, (1, 0): 1, (1, 1): 3}, 10)
    r = mutual_information(joint)
    assert r.measure_id == "MI"
    assert r.value == pytest.approx(0.1245112498, abs=1e-9)


def test_mutual_information_of_coupled_bits_is_one():
    joint = JointHistogram.from_symbols([0, 0, 1, 1], [0, 0, 1, 1])
    assert mutual_information(joint).value == 1.0


def test_mutual_information_symmetry_is_bit_exact():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 80))
        xs = rng.integers(0, 5, n)
        ys = rng.integers(0, 5, n)
        joint = JointHistogram.from_symbols(xs, ys)
        assert mutual_information(joint).value == mutual_information(joint.swapped()).value


def test_mutual_information_matches_both_definitions():
    """Sum-of-entropies form against the conditional form and the oracle."""
    rng = np.random.default_rng(1)
    for _ in range(80):
        n = int(rng.integers(2, 60))
        xs = list(rng.integers(0, 4, n))
        ys = list((rng.integers(0, 4, n) + np.asarray(xs)) % 4)
        joint = JointHistogram.from_symbols(xs, ys)
        value = mutual_information(joint).value
        assert value == pytest.approx(brute_mi(xs, ys), abs=1e-12)
        hx = entropy(joint.marginal_x())
        assert value == pytest.approx(hx - conditional_entropy(joint), abs=1e-12)
        assert value == pytest.approx(
            brute_entropy(xs) - brute_conditional_entropy(xs, ys), abs=1e-12
        )
        assert value >= 0.0


def test_information_gain_hand_value():
    r = information_gain([0, 0, 1, 1, 1, 1], ["A", "A", "A", "B", "B", "B"])
    assert r.measure_id == "IG"
    assert r.value == pytest.approx(0.4591479170272448, abs=1e-12)


def test_information_gain_equals_mutual_information():
    rng = np.random.default_rng(2)
    for _ in range(60):
        n = int(rng.integers(2, 50))
        parent = list(rng.integers(0, 3, n))
        branches = list(rng.integers(0, 4, n))
        got = information_gain(parent, branches).value
        assert got == pytest.approx(brute_information_gain(parent, branches), abs=1e-12)
        assert got == pytest.approx(
            mutual_information(JointHistogram.from_symbols(parent, branches)).value,
            abs=1e-12,
        )


def test_information_gain_input_checks():
    with pytest.raises(ValueError):
        information_gain([0, 1], [0])
    with pytest.raises(ValueError):
        information_gain([], [])


def test_synergy_xor_is_plus_one():
    """Neither input alone tells you anything; together they tell you everything."""
    x1 = [0, 0, 1, 1]
    x2 = [0, 1, 0, 1]
    y = [0, 1, 1, 0]
    r = redundancy_synergy_index([x1, x2], y)
    assert r.value == 1.0
    assert r.params["set_size"] == 2


def test_synergy_duplicated_feature_is_minus_one():
    x = [0, 1, 0, 1]
    r = redundancy_synergy_index([x, list(x)], x)
    assert r.value == -1.0


def test_synergy_single_feature_is_exactly_zero():
    rng = np.random.default_rng(3)
    xs = list(rng.integers(0, 4, 30))
    ys = list(rng.integers(0, 4, 30))
    assert redundancy_synergy_index([xs], ys).value == 0.0


def test_synergy_matches_oracle():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(4, 40))
        feats = [list(rng.integers(0, 3, n)) for _ in range(int(rng.integers(1, 4)))]
        ys = list(rng.integers(0, 3, n))
        assert redundancy_synergy_index(feats, ys).value == pytest.approx(
            brute_synergy(feats, ys), abs=1e-12
        )


def test_synergy_capacity_limit():
    cols = [[0, 1] * 4 for _ in range(4)]
    with pytest.raises(ValueError, match="capacity"):
        redundancy_synergy_index(cols, [0, 1] * 4)


def test_equal_frequency_bins_are_balanced():
    rng = np.random.default_rng(5)
    values = rng.standard_normal(1000)
    for bins in (2, 4, 8):
        sym = equal_frequency_symbols(values, bins)
        counts = np.bincount(sym, minlength=bins)
        assert counts.min() >= (1000 // bins) - 2
        assert counts.max() <= (1000 // bins) + 2


def test_equal_frequency_matches_oracle_bit_for_bit():
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = int(rng.integers(2, 60))
        bins = int(rng.integers(1, 9))
        values = rng.standard_normal(n)
        np.testing.assert_array_equal(
            equal_frequency_symbols(values, bins), brute_equal_frequency(values, bins)
        )


def test_equal_frequency_single_bin_and_errors():
    assert list(equal_frequency_symbols([5.0, 6.0], 1)) == [0, 0]
    with pytest.raises(ValueError):
        equal_frequency_symbols([1.0, np.nan], 2)
    with pytest.raises(ValueError):
        equal_frequency_symbols([], 2)
    with pytest.raises(ValueError):
        equal_frequency_symbols([1.0], 0)


def test_mic_identity_is_exactly_one():
    """Even sample counts split into perfectly balanced halves, so MIC tops out."""
    for n in (8, 16, 100):
        x = np.arange(float(n))
        r = mic(x, x)
        assert r.measure_id == "MIC"
        assert r.value == 1.0
    # Odd counts cannot balance a 2x2 grid exactly; the score stays just below.
    assert 0.999 < mic(np.arange(101.0), np.arange(101.0)).value < 1.0


def test_mic_matches_exhaustive_oracle_exactly():
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.standard_normal(32)
        y = 0.5 * x + rng.standard_normal(32) * 0.3
        assert mic(x, y).value == brute_mic(list(x), list(y))


def test_mic_bounded_on_noise():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(8, 120))
        r = mic(rng.standard_normal(n), rng.standard_normal(n))
        assert 0.0 <= r.value <= 1.0


def test_mic_invariant_under_monotone_feature_transforms():
    """Rank-based grids: strictly increasing maps cannot change the score."""
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.standard_normal(64)
        y = np.sin(x * 2.0) + rng.standard_normal(64) * 0.1
        base = mic(x, y).value
        assert mic(np.exp(x), y).value == base
        assert mic(x**3, y).value == base


def test_mic_input_checks():
    with pytest.raises(ValueError):
        mic(np.arange(7.0), np.arange(7.0))
    with pytest.raises(ValueError):
        mic(np.arange(10.0), np.arange(9.0))


def test_mic_smallest_samples_use_the_minimal_grid():
    """The admissibility bound is floored so tiny samples still get the 2x2 grid."""
    rng = np.random.default_rng(10)
    for n in (8, 9, 10):
        r = mic(rng.standard_normal(n), rng.standard_normal(n))
        assert r.params["bound"] == 5.0
        assert r.params.get("grid", (2, 2)) == (2, 2)
        assert 0.0 <= r.value <= 1.0
