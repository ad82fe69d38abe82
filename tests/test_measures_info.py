import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from depscope.measures.information import (
    _Codes,
    _conditional_entropy,
    _entropy_from_counts,
    _equal_frequency_codes,
    _grid_shapes,
    _mutual_information,
    _table_entropy,
    _terms,
)
from depscope.search import evaluate_pairs

from _oracles import (
    brute_conditional_entropy,
    brute_entropy,
    brute_equal_frequency,
    brute_information_gain,
    brute_mi,
    brute_mic,
    brute_mic_scores,
    brute_synergy,
    pinned_information_gain,
    pinned_mi,
    reference_equal_frequency,
    sorted_entropy,
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


MIXED_SYMBOLS = (  # numpy makes strings of these, so 1 and "1" would be one symbol
    [(1, "a"), ("1", "a")],
    [1, "1", 1, "1"],
    [b"1", 1, b"1", 1],
    [float("nan"), float("nan"), "nan"],
)
OBJECT_SYMBOLS = (  # numpy types these as object
    [(10**20, "x"), (1, "x"), (10**20, "x")],
    [10**20, 1, 10**20],
    [None, 1, None],
    np.array([1, 2, 1], dtype=object),
)


@pytest.mark.parametrize("symbols", MIXED_SYMBOLS + OBJECT_SYMBOLS)
def test_symbols_of_mixed_or_object_types_are_refused(symbols):
    """By every public function of symbols, on either side, rather than coded as numpy would
    make them (strings) or by Python value."""
    n = len(symbols)
    calls = (
        lambda: DiscreteDistribution.from_symbols(symbols),
        lambda: JointHistogram.from_symbols(symbols, [0] * n),
        lambda: JointHistogram.from_symbols([0] * n, symbols),
        lambda: information_gain([0] * n, symbols),
        lambda: information_gain(symbols, [0] * n),
        lambda: redundancy_synergy_index([symbols, [0] * n], [0] * n),
        lambda: redundancy_synergy_index([[0] * n], symbols),
    )
    for call in calls:
        with pytest.raises(ValueError, match="^symbols must be numbers, or strings"):
            call()


def test_symbols_of_one_type_are_coded_by_value():
    """Strings (or bytes) alone are symbols, as numbers are.  Every NaN is one symbol, and -0.0
    and 0.0 are one, as np.unique counts them; NaN dict keys are one symbol too."""
    d = DiscreteDistribution.from_symbols([("1", "a"), ("2", "a")])
    assert d.probabilities == {("1", "a"): 0.5, ("2", "a"): 0.5}
    assert entropy(d) == 1.0
    joint = JointHistogram.from_symbols(["x", "y", "x", "y"], [0, 1, 0, 1])
    assert joint.counts == {("x", 0): 2, ("y", 1): 2}
    assert mutual_information(joint).value == 1.0
    assert information_gain([0, 1, 0, 1], [b"1", b"2", b"1", b"2"]).value == 1.0
    xor = [0, 1, 1, 0]
    assert redundancy_synergy_index([["1", "2", "1", "2"], [0, 0, 1, 1]], xor).value == 1.0
    assert redundancy_synergy_index([[0, 0, 1, 1], [b"1", b"", b"1", b""]], xor).value == 1.0
    assert len(DiscreteDistribution.from_symbols([float("nan"), float("nan"), 1.0])) == 2
    assert len(DiscreteDistribution.from_symbols(np.array([[np.nan, 1.0], [-np.nan, 1.0]]))) == 1
    assert len(DiscreteDistribution.from_symbols(np.array([[-0.0, 1.0], [0.0, 1.0]]))) == 1
    with pytest.raises(ValueError, match="NaN"):
        DiscreteDistribution({float("nan"): 0.5, float("nan"): 0.5})
    with pytest.raises(ValueError, match="NaN"):
        JointHistogram({(float("nan"), 0): 1, (float("nan"), 0): 1}, 2)


def test_joint_histogram_validation():
    with pytest.raises(ValueError):
        JointHistogram({}, 0)
    with pytest.raises(ValueError):
        JointHistogram({(0, 0): 3}, 4)
    with pytest.raises(ValueError):
        JointHistogram.from_symbols([0, 1], [0])
    for count in (1.9, 0.5, 2.5):
        with pytest.raises(ValueError, match="whole numbers"):
            JointHistogram({(0, 0): count, (1, 1): 2}, 3)
    assert JointHistogram({(0, 0): 1.0, (1, 1): np.int64(2)}, 3).counts == {(0, 0): 1, (1, 1): 2}


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
        swapped = JointHistogram.from_symbols(ys, xs)
        assert mutual_information(joint).value == mutual_information(swapped).value


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
        hx = entropy(DiscreteDistribution.from_symbols(xs))
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


def discrete_pairs():
    """Paired symbols: ints of up to 16 values, so that 10 and 2 meet, or short strings."""
    ints = st.integers(0, 15)
    text = st.text(alphabet="ab10", max_size=3)
    return st.one_of(
        st.lists(st.tuples(ints, ints), min_size=1, max_size=80),
        st.lists(st.tuples(text, text), min_size=1, max_size=80),
        st.lists(st.tuples(ints, text), min_size=1, max_size=80),
    )


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(pairs=discrete_pairs())
@example(pairs=list(zip([1, 1, 1, 0, 1, 0, 1, 1, 1, 0, 0], [9, 4, 10, 9, 5, 1, 1, 8, 10, 5, 10])))
def test_discrete_measures_are_the_pinned_references(pairs):
    """MI and IG equal their pinned references with ==, IG's branches added in ascending
    order of their symbols; conditional entropy is within 1e-12 of the brute one."""
    xs, ys = (list(side) for side in zip(*pairs))
    joint = JointHistogram.from_symbols(xs, ys)
    assert mutual_information(joint).value == pinned_mi(xs, ys)
    assert information_gain(xs, ys).value == pinned_information_gain(xs, ys)
    assert conditional_entropy(joint) == pytest.approx(brute_conditional_entropy(xs, ys), abs=1e-12)


def test_matrix_branches_add_in_the_value_order_of_their_rows():
    """A matrix of branch symbols gives IG's bits for its rows as tuples: rows are coded in
    value order, whose bytes order otherwise (-1 after 300, 256 before 1)."""
    rng = np.random.default_rng(0)
    for _ in range(3000):
        n = int(rng.integers(2, 41))
        parent = rng.integers(0, 4, n).tolist()
        rows = rng.choice([-1, 1, 2, 256, 300], size=(n, int(rng.integers(1, 4))))
        tuples = list(map(tuple, rows.tolist()))
        assert information_gain(parent, rows).value == pinned_information_gain(parent, tuples)


def test_a_joint_of_mixed_type_cells_still_scores():
    cells = {(0, "a"): 2, ("b", 1.5): 1, ((1, 2), None): 3, (0, None): 1, ("b", "a"): 2}
    joint = JointHistogram(cells, 9)
    xs = [x for (x, _), c in cells.items() for _ in range(c)]
    ys = [y for (_, y), c in cells.items() for _ in range(c)]
    assert mutual_information(joint).value == pinned_mi(xs, ys)
    assert conditional_entropy(joint) == pytest.approx(brute_conditional_entropy(xs, ys), abs=1e-12)


def kernel_scores(joint):
    """MI and conditional entropy of the integer-code kernel on the observations the joint's
    cells stand for: each cell repeated by its count, each side numbered in first-met order."""
    repeats = list(joint.counts.values())
    sides = []
    for symbols in zip(*joint.counts):
        codes = {}
        cells = [codes.setdefault(s, len(codes)) for s in symbols]
        sides.append(_Codes(np.repeat(cells, repeats)[None, :], len(codes)))
    return float(_mutual_information(*sides)[0]), float(_conditional_entropy(*sides)[0])


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(pairs=discrete_pairs())
def test_joint_scores_are_the_kernels_bits(pairs):
    """Scored from cell counts alone, MI and conditional entropy keep the kernel's bits."""
    joint = JointHistogram.from_symbols(*zip(*pairs))
    assert (mutual_information(joint).value, conditional_entropy(joint)) == kernel_scores(joint)


def test_a_joint_scores_in_its_cells_not_its_observations():
    """Three cells of two million observations score at once, and no table of n terms is made
    (one takes 16 MB)."""
    n = 2_000_003
    joint = JointHistogram({(0, 0): 1_000_000, (0, 1): 3, (1, 1): 1_000_000}, n)
    tracemalloc.start()
    try:
        started = time.perf_counter()
        mi = mutual_information(joint).value
        h = conditional_entropy(joint)
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 2**20
    xs, ys, cells = [1_000_003, 1_000_000], [1_000_000, 1_000_003], [1_000_000, 3, 1_000_000]
    expected = sorted_entropy(xs, n) + sorted_entropy(ys, n) - sorted_entropy(cells, n)
    assert mi == max(expected, 0.0) > 0.0
    assert h == 1_000_003 / n * sorted_entropy([3, 1_000_000], 1_000_003)


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


@st.composite
def binning_columns(draw):
    """1-60 values: continuous, rounded (ties, and -0.0 from np.round), constant, or near
    the float64 limit, where differences of order statistics overflow to inf."""
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(("continuous", "rounded", "constant", "huge")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal(n)
    if kind == "rounded":
        values = np.round(values * draw(st.sampled_from((0.5, 2.0))))
    elif kind == "constant":
        values = np.full(n, values[0])
    elif kind == "huge":
        values = np.clip(values, -1.7, 1.7) * 1e308
    return values


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(values=binning_columns())
@example(values=np.array([2.5]))
@example(values=np.round([-0.3, 0.2, 0.0, -0.1, 1.4, 0.4]))
def test_codes_of_every_bin_count_from_one_sort_are_the_per_count_loop(values):
    counts = tuple(range(2, 17))
    with np.errstate(over="ignore"):
        overflows = not np.isfinite(values.max() - values.min())
    # A block of two rows: the values, and the same values reversed.
    rows = np.stack([values, values[::-1]])
    codes, wide = _equal_frequency_codes(rows, np.sort(rows, axis=1), counts)
    assert wide.tolist() == [overflows, overflows]
    if overflows:
        # Differences of order statistics overflow and the edges come out of
        # order, so such values are refused instead of binned.
        for g in counts:
            with pytest.raises(ValueError, match="^values span more than float64$"):
                equal_frequency_symbols(values, g)
        return
    expected = np.stack([reference_equal_frequency(values, g) for g in counts])
    assert codes.dtype == np.uint8
    assert np.array_equal(codes[0], expected)
    assert np.array_equal(codes[1], expected[:, ::-1])
    # An order that puts -0.0 and 0.0 differently still gives the same codes.
    stable = values[np.argsort(values, kind="stable")]
    assert np.array_equal(_equal_frequency_codes(values[None], stable[None], counts)[0][0], expected)
    for g in counts:
        symbols = equal_frequency_symbols(values, g)
        assert symbols.dtype == np.int64
        assert np.array_equal(symbols, expected[g - 2])


def test_values_that_span_more_than_float64_are_refused_not_binned():
    """Their edges would overflow out of order and leave bins empty, so they are refused."""
    x = np.array([-1e308, 1.7e308, -1e308, -1e308, -1.7e308, 1.7e308, 1e308, -1e308, 1.7e308])
    with pytest.raises(ValueError, match="^values span more than float64$"):
        equal_frequency_symbols(x, 5)
    xs = np.tile(x, 12)[:100]
    ys = np.linspace(-0.01, 0.01, 100)
    for measure in ("MI", "IG", "RSI_SYNERGY", "MIC"):
        r = evaluate_pairs(measure, xs, ys)
        assert r.degenerate and r.params["reason"] == "values span more than float64"
    with pytest.raises(ValueError, match="^values span more than float64$"):
        mic(ys, xs)


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
    # Tied values at the search's window sizes; the grid reported is the first best shape.
    for n in (100, 150, 200, 400):
        x = np.round(rng.standard_normal(n), 2)
        y = np.round(np.sin(2.0 * x) + 0.5 * rng.standard_normal(n), 2)
        r = mic(x, y)
        scores = brute_mic_scores(list(x), list(y))
        best = max(m for _, m in scores)
        assert r.value == brute_mic(list(x), list(y)) == min(best, 1.0)
        assert [shape for shape, _ in scores] == _grid_shapes(r.params["bound"])
        assert r.params["grid"] == next(shape for shape, m in scores if m == best)


@st.composite
def count_vectors(draw):
    """n observations split over up to 40 symbols, some of them empty."""
    n = draw(st.integers(8, 400))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=39)))
    bounds = [0, *cuts, n]
    return n, [hi - lo for lo, hi in zip(bounds, bounds[1:])]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(drawn=count_vectors())
def test_table_entropy_is_the_pinned_sum_bit_for_bit(drawn):
    n, counts = drawn
    terms = _terms(n)
    expected = _entropy_from_counts(counts, n)
    assert float(_table_entropy(np.array(counts), terms)) == expected
    # Row-wise, as MIC counts every grid shape at once, with zero padding.
    rows = np.array([counts + [0], [0] + counts[::-1]])
    assert _table_entropy(rows, terms).tolist() == [expected, expected]


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
