"""Information-theoretic dependence measures on discrete symbols.

MI, IG, RSI_SYNERGY and MIC score through one kernel on integer codes that
scores a block of rows at once: each row is one sample (in a scan, one
anchor), and a side is an (A, n) matrix of codes 0..width-1 (_Codes), kept
no wider than n by renumbering each row densely.  Every table, MIC's at
each grid size included, is counted by _row_counts: np.bincount counts a
table of at most n cells per row; a wider joint table is counted from the
runs of its sorted rows, zero-padded to n cells.  MIC's joint tables are the
exception: _mic counts those of every grid shape with one bincount of its
own, into the work buffers that its block kernel (_mics) makes once per call.
Entropies are in bits with one pinned arithmetic: Python-float terms c / n
summed smallest-first as p * math.log2(p), so results are deterministic and
MI is exactly symmetric.  Counts of n observations look their terms up in a
table cached per n (_terms, as MIC's grid is in _mic_grid) and add them with
np.cumsum, which sums in the same order and so gives the same bits; zero
counts sort first and add 0.0, so zero-padded rows give the same bits too.
IG and conditional entropy add their branches in code order.  The public
functions of symbols score a one-row block; those of a JointHistogram add
the same terms, in the same order, from its cell counts alone.  Symbols
are numbers, or strings (or bytes) alone: values numpy would type as
object, or turn into strings, are refused.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ..shaping import TOO_MANY_BINS, _fixed_width_codes
from .result import MeasureResult, paired_vectors

PROBABILITY_TOL = 1e-12
MAX_SET_SIZE = 3  # synergy capacity limit: the joint table grows multiplicatively
TOO_LARGE = f"feature set of size {{}} exceeds the capacity limit {MAX_SET_SIZE}"
MIC_ALPHA = 0.6  # MIC grids need gx * gy below n ** MIC_ALPHA
TOO_WIDE = "values span more than float64"  # equal-frequency edges would overflow


def _canon(symbol):
    """Normalize numpy scalars and sequences to plain hashable Python values, every NaN to one."""
    if isinstance(symbol, np.generic):
        symbol = symbol.item()
    if isinstance(symbol, (tuple, list, np.ndarray)):
        return tuple(_canon(s) for s in symbol)
    return math.nan if isinstance(symbol, float) and math.isnan(symbol) else symbol


def _plain(symbols: np.ndarray, rows: np.ndarray) -> list:
    """The given rows as plain Python symbols: a matrix's rows as tuples."""
    values = symbols[rows].tolist()
    return [tuple(v) for v in values] if symbols.ndim == 2 else values


def _entropy_from_counts(counts, n) -> float:
    """Entropy in bits from the terms p = c / n of positive counts, added smallest-first.

    Probabilities go in as counts with n = 1.
    """
    total = 0.0
    for p in sorted(c / n for c in counts if c > 0):
        total += p * math.log2(p)
    return -total if total != 0.0 else 0.0


def _symbols(symbols) -> np.ndarray:
    """np.asarray(symbols), refused (ValueError) where asarray types them as object (ints
    beyond int64, None) or makes strings of values of other types (1 and "1")."""
    values = np.asarray(symbols)
    kind = {"U": str, "S": bytes}.get(values.dtype.kind)
    mixed = kind and not isinstance(symbols, np.ndarray) and not all(
        isinstance(v, kind) for v in np.asarray(symbols, dtype=object).flat
    )
    if values.dtype == object or mixed:
        raise ValueError("symbols must be numbers, or strings (or bytes) alone")
    return values


def _paired(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Two symbol sequences as arrays of one shared, non-zero length."""
    xa = _symbols(xs)
    ya = _symbols(ys)
    if len(xa) != len(ya):
        raise ValueError(f"length mismatch: {len(xa)} vs {len(ya)}")
    if not len(xa):
        raise ValueError("empty symbol sequences")
    return xa, ya


def _codes(symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense codes 0..k-1 of a symbol vector or of a matrix's rows, and each code's first row.

    Codes follow the symbols' value order.  A matrix's rows join their
    columns' codes with _joint's radix, so they are numbered
    lexicographically, far more cheaply than by np.unique(axis=0); -0.0 and
    0.0 are one symbol, and every NaN is one, as np.unique has them.
    """
    if symbols.ndim == 2 and symbols.shape[1]:
        symbols = _joint([_symbol_codes(column) for column in symbols.T]).codes[0]
    elif symbols.ndim != 1:
        raise ValueError("symbols must be a vector or a matrix of symbol rows")
    _, first, codes = np.unique(symbols, return_index=True, return_inverse=True)
    return codes, first


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=256)
def _terms(n: int) -> np.ndarray:
    """T[c] = (c / n) * log2(c / n) for c = 0..n in Python floats, T[0] = 0.0; read-only."""
    return _read_only(np.array([0.0] + [(c / n) * math.log2(c / n) for c in range(1, n + 1)]))


class _MicGrid(NamedTuple):
    """MIC's admissible grid shapes for one sample size, in search order."""

    bound: float
    shapes: tuple[tuple[int, int], ...]
    gx: np.ndarray
    gy: np.ndarray
    cells: int  # the largest gx * gy: each shape counts its joint table in a row this wide
    divisors: np.ndarray  # log2(min(gx, gy))


@functools.lru_cache(maxsize=256)
def _mic_grid(n: int) -> _MicGrid:
    """MIC's grid for n observations; every caller shares it, so its arrays are read-only."""
    # The bound is floored so the minimal 2x2 grid stays admissible for the
    # smallest allowed samples.
    bound = max(n**MIC_ALPHA, 5.0)
    shapes = tuple(_grid_shapes(bound))
    gx = _read_only(np.array([s[0] for s in shapes]))
    gy = _read_only(np.array([s[1] for s in shapes]))
    divisors = _read_only(np.array([math.log2(min(s)) for s in shapes]))
    return _MicGrid(bound, shapes, gx, gy, int((gx * gy).max()), divisors)


def _table_entropy(counts: np.ndarray, terms: np.ndarray):
    """_entropy_from_counts of each row of counts, bit for bit, from the terms table of their n.

    Sorting counts sorts their p, equal counts give equal terms, zero counts
    add 0.0 ahead of the rest, and cumsum adds in order; 0.0 - total turns
    a zero total into +0.0 as the loop does.
    """
    return 0.0 - np.cumsum(terms[np.sort(counts, axis=-1)], axis=-1)[..., -1]


def _run_ends(ordered: np.ndarray) -> np.ndarray:
    """Flat positions of the last entry of each run of equal entries in each row of a row-sorted matrix."""
    last = np.ones(ordered.shape, dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=last[:, :-1])
    return np.flatnonzero(last)


def _row_counts(codes: np.ndarray, width: int) -> np.ndarray:
    """Each row's counts of its codes 0..width-1, zero-padded into one matrix.

    Rows of at most n cells are counted by one bincount; a wider table by
    the runs of its sorted rows, each run's length at its last position.
    """
    a, n = codes.shape
    if width <= n:
        cells = codes + width * np.arange(a)[:, None]
        return np.bincount(cells.ravel(), minlength=a * width).reshape(a, width)
    ends = _run_ends(np.sort(codes, axis=1))
    counts = np.zeros(a * n, dtype=np.intp)
    counts[ends] = np.diff(ends, prepend=-1)  # every row's last entry ends a run
    return counts.reshape(a, n)


def _dense(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """Each row of (A, n) codes renumbered 0..k-1 in their order, and the largest k."""
    order = np.argsort(codes, axis=1, kind="stable")
    ordered = np.take_along_axis(codes, order, axis=1)
    steps = np.zeros(ordered.shape, dtype=np.intp)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=steps[:, 1:])
    ranks = np.cumsum(steps, axis=1)
    dense = np.empty_like(ranks)
    np.put_along_axis(dense, order, ranks, axis=1)
    return dense, int(ranks[:, -1].max(initial=-1)) + 1


class _Codes:
    """An (A, n) block of codes 0..width-1 per row, and each row's entropy.

    Codes wider than n are renumbered densely per row, in their order, so
    no side of a joint table is wider than n.
    """

    def __init__(self, codes: np.ndarray, width: int):
        if width > codes.shape[1]:
            codes, width = _dense(codes)
        self.codes = codes
        self.width = width

    @cached_property
    def entropy(self) -> np.ndarray:
        return _table_entropy(_row_counts(self.codes, self.width), _terms(self.codes.shape[1]))


def _joint(members: list[_Codes]) -> _Codes:
    """The codes of the members' symbol tuples, numbered in the members' lexicographic order."""
    if len(members) == 1:
        return members[0]
    codes, width = members[0].codes, members[0].width
    for m in members[1:]:
        if width * m.width > 2**31:  # renumber densely before the radix can overflow
            joined = _Codes(codes, width)
            codes, width = joined.codes, joined.width
        codes = codes * m.width + m.codes
        width *= m.width
    return _Codes(codes, width)


def _mutual_information(x: _Codes, y: _Codes) -> np.ndarray:
    """I(X;Y) = H(X) + H(Y) - H(X,Y) in bits per row, clipped at 0."""
    n = x.codes.shape[1]
    joint = _row_counts(x.codes * y.width + y.codes, x.width * y.width)
    return np.maximum(x.entropy + y.entropy - _table_entropy(joint, _terms(n)), 0.0)


def _segment_sums(terms: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The sum of each run of consecutive terms (of the given lengths), added in order from 0.0."""
    first = np.cumsum(lengths) - lengths
    totals = np.zeros(lengths.shape[0])
    live = np.arange(lengths.shape[0])
    for j in range(int(lengths.max(initial=0))):
        live = live[lengths[live] > j]
        totals[live] += terms[first[live] + j]
    return totals


def _conditional_entropy(s: _Codes, t: _Codes) -> np.ndarray:
    """H(S|T) = sum_t p(t) H(S|t) in bits per row.

    t's codes are the branches, whose terms are added in code order; each
    branch's entropy adds its own counts' terms, from _terms of its own
    size nt, smallest-first.  The terms tables are looked up once per
    distinct size in the block.
    """
    a, n = s.codes.shape
    joint = np.sort(t.codes * s.width + s.codes, axis=1)
    ends = _run_ends(joint)
    counts = np.diff(ends, prepend=-1)
    branches = (ends // n) * t.width + joint.ravel()[ends] // s.width  # flat (row, branch)
    branches, counts = np.divmod(np.sort(branches * (n + 1) + counts), n + 1)
    first = np.flatnonzero(np.diff(branches, prepend=-1))
    lengths = np.diff(first, append=branches.shape[0])
    sizes = np.add.reduceat(counts, first)
    distinct, which = np.unique(sizes, return_inverse=True)
    tables = [_terms(size) for size in distinct.tolist()]
    offsets = np.cumsum([0] + [table.shape[0] for table in tables[:-1]])
    terms = np.concatenate(tables)[np.repeat(offsets[which], lengths) + counts]
    weighted = np.zeros(a * t.width)
    weighted[branches[first]] = (sizes / n) * (0.0 - _segment_sums(terms, lengths))
    return np.cumsum(weighted.reshape(a, t.width), axis=1)[:, -1]


def _information_gain(s: _Codes, t: _Codes) -> np.ndarray:
    """H(S) - H(S|T) in bits per row, clipped at 0."""
    return np.maximum(s.entropy - _conditional_entropy(s, t), 0.0)


def _symbol_codes(symbols: np.ndarray) -> _Codes:
    """A symbol vector, or a matrix's rows, as a one-row block of their codes."""
    codes, first = _codes(symbols)
    return _Codes(codes[None, :], first.shape[0])


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability mass function over hashable symbols."""

    probabilities: dict

    def __post_init__(self):
        probs = {_canon(s): float(p) for s, p in self.probabilities.items()}
        if len(probs) < len(self.probabilities):
            raise ValueError("symbols repeat: every NaN is one symbol")
        if not probs:
            raise ValueError("distribution needs at least one symbol")
        if not all(p >= 0.0 for p in probs.values()):
            raise ValueError("probabilities must be non-negative numbers")
        total = math.fsum(probs.values())
        if abs(total - 1.0) > PROBABILITY_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "probabilities", probs)

    @classmethod
    def from_symbols(cls, symbols) -> "DiscreteDistribution":
        values = _symbols(symbols)
        if not len(values):
            raise ValueError("empty symbol sequence")
        codes, first = _codes(values)
        n = len(values)
        counts = np.bincount(codes).tolist()
        return cls({s: c / n for s, c in zip(_plain(values, first), counts)})

    def __len__(self) -> int:
        return len(self.probabilities)


@dataclass(frozen=True)
class JointHistogram:
    """Exact joint counts over (x, y) symbol pairs."""

    counts: dict
    n: int

    def __post_init__(self):
        given = {(_canon(x), _canon(y)): c for (x, y), c in self.counts.items()}
        if len(given) < len(self.counts):
            raise ValueError("cells repeat: every NaN is one symbol")
        counts = {cell: int(c) for cell, c in given.items()}
        if not counts:
            raise ValueError("joint histogram needs at least one cell")
        if any(counts[cell] != c for cell, c in given.items()):
            raise ValueError("cell counts must be whole numbers")
        if any(c <= 0 for c in counts.values()):
            raise ValueError("cell counts must be positive")
        total = sum(counts.values())
        if total != self.n:
            raise ValueError(f"cell counts sum to {total}, declared n is {self.n}")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_symbols(cls, xs, ys) -> "JointHistogram":
        xa, ya = _paired(xs, ys)
        x, _ = _codes(xa)
        y, y_first = _codes(ya)
        _, first, counts = np.unique(x * len(y_first) + y, return_index=True, return_counts=True)
        cells = zip(_plain(xa, first), _plain(ya, first))
        return cls(dict(zip(cells, counts.tolist())), len(xa))

    def _margins(self) -> tuple[dict, dict]:
        """Each x symbol's count, and each y symbol's cell counts, y symbols in first-met order.

        Scoring reads cell counts alone, so its cost grows with the cells,
        not with n.
        """
        xs: dict = {}
        ys: dict = {}
        for (x, y), c in self.counts.items():
            xs[x] = xs.get(x, 0) + c
            ys.setdefault(y, []).append(c)
        return xs, ys


def entropy(dist: DiscreteDistribution) -> float:
    """Shannon entropy in bits: -sum p log2 p, with 0 log 0 taken as 0."""
    return _entropy_from_counts(dist.probabilities.values(), 1)


def conditional_entropy(joint: JointHistogram) -> float:
    """H(X|Y) in bits: the y-weighted average entropy of the conditional columns.

    The columns are added in first-met order of y, as _conditional_entropy
    adds its branches in code order, so the bits are the same.
    """
    total = 0.0
    for counts in joint._margins()[1].values():
        size = sum(counts)
        total += size / joint.n * _entropy_from_counts(counts, size)
    return total


def mutual_information(joint: JointHistogram) -> MeasureResult:
    """Mutual information in bits from exact empirical tables.

    Evaluated as H(X) + H(Y) - H(X,Y), which is exactly symmetric under
    swapping the axes; tiny negative rounding residue is clipped to 0.
    """
    xs, ys = joint._margins()
    n = joint.n
    value = (
        _entropy_from_counts(xs.values(), n)
        + _entropy_from_counts(map(sum, ys.values()), n)
        - _entropy_from_counts(joint.counts.values(), n)
    )
    return MeasureResult("MI", max(value, 0.0), n)


def information_gain(parent_symbols, child_assignment) -> MeasureResult:
    """Entropy drop of the parent symbols under a split: H(S) - sum_t p(t) H(S|t).

    child_assignment labels each observation with the branch it falls into.
    Numerically this coincides with the mutual information between the two
    labelings.
    """
    parent, branch = _paired(parent_symbols, child_assignment)
    value = _information_gain(_symbol_codes(parent), _symbol_codes(branch))[0]
    return MeasureResult("IG", float(value), parent.shape[0])


def _synergy(joint: np.ndarray, singles: list[np.ndarray]) -> np.ndarray:
    """The joint MI minus the single MIs, added in member order, per row."""
    return joint - sum(singles, 0.0)


def redundancy_synergy_index(feature_symbol_lists, y_symbols) -> MeasureResult:
    """Joint information minus the sum of single-feature informations, in bits.

    I(S;Y) - sum_i I(Xi;Y): positive means the set carries synergy beyond its
    parts, negative means the parts are redundant, and a single-feature set
    scores exactly 0.  Set sizes above MAX_SET_SIZE are refused.
    """
    features = [_symbols(f) for f in feature_symbol_lists]
    if not features:
        raise ValueError("need at least one feature symbol sequence")
    if len(features) > MAX_SET_SIZE:
        raise ValueError(TOO_LARGE.format(len(features)))
    _, y = _paired(np.column_stack(features), y_symbols)
    singles = [_symbol_codes(f) for f in features]
    target = _symbol_codes(y)
    mis = [_mutual_information(f, target) for f in singles]
    value = _synergy(_mutual_information(_joint(singles), target), mis)[0]
    return MeasureResult("RSI_SYNERGY", float(value), y.shape[0], params={"set_size": len(features)})


def _information_kernels(feature_bins: int, bin_width: float) -> dict:
    """The block kernels, kernel(sets, ys) as _mics', of MI, IG and RSI_SYNERGY for one anchor
    block, by measure id: features in feature_bins equal-frequency codes, targets in
    fixed-width bins of bin_width.

    The three share their memos, kept as long as the kernels: each column's codes, each set's
    joint codes and each (set, target)'s MI, which RSI_SYNERGY reads, are made once.  Anchors
    are flagged where a target spans more bins than int64 can index, then (RSI_SYNERGY) for a
    set above MAX_SET_SIZE, not scored, then where a feature is too wide to bin.
    """
    feature = functools.cache(lambda c: _feature_codes(c.values, c.ordered, feature_bins))

    @functools.cache
    def target(c) -> tuple[_Codes, np.ndarray]:
        codes, refused = _fixed_width_codes(c.values, bin_width)
        return _Codes(*_dense(codes)), refused

    joint = functools.cache(lambda x: _joint([feature(c)[0] for c in x]))
    mi = functools.cache(lambda x, y: _mutual_information(joint(x), target(y)[0]))

    def kernel(score, limit: float):
        def scores(sets: list, ys: list):
            a, n = ys[0].values.shape
            if n == 0:
                raise ValueError("empty symbol sequences")
            values = np.full((a, len(sets), len(ys)), np.nan)
            sizes = np.array([len(x) for x in sets])[None, :, None]
            checks = [(np.stack([target(y)[1] for y in ys], axis=1)[:, None, :], TOO_MANY_BINS)]
            large = sorted({len(x) for x in sets if len(x) > limit})
            checks += [(sizes == s, TOO_LARGE.format(s)) for s in large]
            wide = np.zeros(values.shape[:2], dtype=bool)
            for i, x in enumerate(sets):
                if len(x) <= limit:
                    wide[:, i] = np.logical_or.reduce([feature(c)[1] for c in x])
                    for j, y in enumerate(ys):
                        values[:, i, j] = score(x, y)
            checks.append((wide[:, :, None], TOO_WIDE))
            return values, [(np.broadcast_to(mask, values.shape), text) for mask, text in checks]

        return scores

    return {
        "MI": kernel(mi, math.inf),
        "IG": kernel(lambda x, y: _information_gain(target(y)[0], joint(x)), math.inf),
        "RSI_SYNERGY": kernel(
            lambda x, y: _synergy(mi(x, y), [mi((c,), y) for c in x]), MAX_SET_SIZE
        ),
    }


@functools.lru_cache(maxsize=256)
def _quantile_steps(n: int, counts: tuple[int, ...]):
    """Where equal_frequency_symbols puts the edges of n sorted values, for each count in counts.

    Edge k of g bins sits at pos = (k / g) * (n - 1), between order statistics
    lo = int(pos) and hi = min(lo + 1, n - 1) at fraction pos - lo; the steps
    are taken in Python floats, edges of all counts laid end to end.  Returns
    lo, hi, the fractions and each count's (start, stop) span of the edges.
    """
    lo, frac, spans = [], [], []
    for g in counts:
        spans.append((len(lo), len(lo) + g - 1))
        for k in range(1, g):
            pos = (k / g) * (n - 1)
            lo.append(int(pos))
            frac.append(pos - int(pos))
    lo = _read_only(np.array(lo, dtype=np.intp))
    hi = _read_only(np.minimum(lo + 1, n - 1))
    return lo, hi, _read_only(np.array(frac)), tuple(spans)


def _equal_frequency_codes(
    values: np.ndarray, ordered: np.ndarray, counts: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """equal_frequency_symbols of each row of (A, n) values at each bin count (>= 2) in counts.

    ordered is each row sorted ascending, so one sort serves every count.
    Each edge is s[lo] + frac * (s[hi] - s[lo]), the arithmetic of the plain
    float loop, and a value's code is the number of edges at or below it.
    Returns the codes as (A, len(counts), n) and which rows span more than
    float64: there a difference of order statistics overflows, the edges
    come out of order, and the row's codes mean nothing.  The codes are of
    the smallest unsigned type that holds max(counts) - 1.
    """
    lo, hi, frac, spans = _quantile_steps(values.shape[1], counts)
    low = ordered[:, lo]
    with np.errstate(over="ignore", invalid="ignore"):
        wide = ~np.isfinite(ordered[:, -1] - ordered[:, 0])
        edges = low + frac * (ordered[:, hi] - low)
    below = edges[:, :, None] <= values[:, None, :]
    dtype = np.min_scalar_type(max(counts) - 1)
    return np.stack([below[:, a:b].sum(axis=1, dtype=dtype) for a, b in spans], axis=1), wide


def equal_frequency_symbols(values, bins: int) -> np.ndarray:
    """Bin reals into roughly equal-count bins; symbols are 0..bins-1.

    Edges are linear interpolations between order statistics at the k/bins
    quantiles, with positions taken in plain Python floats, so the partition
    depends only on the sorted values; the scan makes the same codes for
    every bin count it needs from one sort per column window.  Ties sitting
    exactly on an edge go to the upper bin.  Values that span more than
    float64 (max - min overflows) are refused.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] == 0:
        raise ValueError("values must be a non-empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    if bins == 1:
        return np.zeros(v.shape[0], dtype=np.int64)
    codes, wide = _equal_frequency_codes(v[None, :], np.sort(v)[None, :], (bins,))
    if wide[0]:
        raise ValueError(TOO_WIDE)
    return codes[0, 0].astype(np.int64)


def _feature_codes(values: np.ndarray, ordered: np.ndarray, bins: int) -> tuple[_Codes, np.ndarray]:
    """The equal-frequency codes of (A, n) values at bins, as intp so that _joint's radix
    products cannot wrap, and the too-wide rows."""
    codes, wide = _equal_frequency_codes(values, ordered, (bins,))
    return _Codes(codes[:, 0].astype(np.intp), bins), wide


def _grid_shapes(bound: float) -> list[tuple[int, int]]:
    shapes = []
    gx = 2
    while gx * 2 < bound:
        gy = 2
        while gx * gy < bound:
            shapes.append((gx, gy))
            gy += 1
        gx += 1
    return shapes


class _MicSide(NamedTuple):
    """One side of MIC over a block: codes at g = 2..gmax, their entropies, and the too-wide rows."""

    codes: np.ndarray  # (A, gmax - 1, n)
    entropy: np.ndarray  # (A, gmax - 1)
    wide: np.ndarray  # (A,)


def _mic_side(values: np.ndarray, ordered: np.ndarray) -> _MicSide:
    """_MicSide of (A, n) values and their rows sorted ascending."""
    a, n = values.shape
    if n < 8:
        raise ValueError(f"mic needs at least 8 observations, got {n}")
    gmax = int(_mic_grid(n).gx[-1])  # the largest gx; gy tops out at the same value
    codes, wide = _equal_frequency_codes(values, ordered, tuple(range(2, gmax + 1)))
    counts = _row_counts(codes.reshape(-1, n), gmax).reshape(a, gmax - 1, -1)
    return _MicSide(codes, _table_entropy(counts, _terms(n)), wide)


def _mic_work(x: _MicSide) -> tuple[np.ndarray, np.ndarray]:
    """Buffers for _mic's joint cells of x's rows: one cell per (row, grid shape, observation),
    as intp and as x's codes."""
    a, _, n = x.codes.shape
    shape = (a, len(_mic_grid(n).shapes), n)
    return np.empty(shape, dtype=np.intp), np.empty(shape, dtype=x.codes.dtype)


def _mic(
    x: _MicSide, y: _MicSide, work: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's MIC, its best normalized MI clipped to [0, 1], and the index of its grid
    shape; every joint table counted at once.

    The cells are made in work, _mic_work's buffers, which _mics makes once
    per anchor block: tables of every shape are hundreds of KiB, and a fresh
    one per call would cost its pages each time.  The joint tables are
    counted here, by one bincount into work, not by _row_counts.
    """
    a, _, n = x.codes.shape
    grid = _mic_grid(n)
    shapes = len(grid.shapes)
    cells, codes = work
    # The indices are in range; mode="clip" lets np.take write into codes unbuffered.
    np.take(x.codes, grid.gx - 2, axis=1, out=codes, mode="clip")
    np.multiply(grid.gy[:, None], codes, out=cells)
    cells += np.take(y.codes, grid.gy - 2, axis=1, out=codes, mode="clip")
    # Every table has fewer than n cells (grid.cells < max(n**0.6, 5) <= n), so one bincount
    # counts them all, each (row, shape) at its own offset, as _row_counts does.
    cells += (grid.cells * np.arange(a * shapes)).reshape(a, shapes, 1)
    joint = np.bincount(cells.ravel(), minlength=a * shapes * grid.cells).reshape(a, shapes, -1)
    hxy = _table_entropy(joint, _terms(n))
    m = np.maximum(x.entropy[:, grid.gx - 2] + y.entropy[:, grid.gy - 2] - hxy, 0.0) / grid.divisors
    best = np.argmax(m, axis=1)  # the first of equal maxima: ties prefer the smaller gx, then gy
    values = m[np.arange(a), best]
    return np.where(values > 0.0, np.minimum(values, 1.0), 0.0), best


def _mics(sets: list, ys: list):
    """MIC of every (feature set, target) pair of an anchor block, and its check, the rows
    too wide to bin on either side: an (A, S, T) value array, NaN for a set of more than one
    column (which the scan flags as a pairwise measure's).

    sets are the block's feature sets, each a tuple of _Column, and ys its targets, each a
    _Column.  The sides and the work buffers live for this call only.
    """
    sides = [_mic_side(y.values, y.ordered) for y in ys]
    work = _mic_work(sides[0])
    values = np.full((len(ys[0].values), len(sets), len(ys)), np.nan)
    wide = np.zeros(values.shape, dtype=bool)
    for i, x in enumerate(sets):
        if len(x) == 1:
            sx = _mic_side(x[0].values, x[0].ordered)
            for j, sy in enumerate(sides):
                values[:, i, j] = _mic(sx, sy, work)[0]
                wide[:, i, j] = sx.wide | sy.wide
    return values, [(wide, TOO_WIDE)]


def mic(x, y) -> MeasureResult:
    """Maximal information coefficient with equal-frequency grid placement.

    Searches every grid shape (gx, gy) with gx, gy >= 2 and gx*gy below the
    sample-size bound max(n**0.6, 5) (0.6 is MIC_ALPHA, fixed), normalizing
    each grid's mutual information by log2(min(gx, gy)); ties prefer the
    smaller gx, then gy.  One partition per shape (equal-frequency on each
    axis) stands in for the exhaustive partition search, which keeps the
    estimate deterministic and fast.  params holds the grid shape of a
    score above 0.
    """
    xa, ya = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or xa.shape != ya.shape:
        paired_vectors(xa, ya)  # raises; below 2 observations mic's minimum of 8 speaks
    sides = [_mic_side(v[None, :], np.sort(v)[None, :]) for v in (xa, ya)]
    for v, side in zip((xa, ya), sides):
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        if side.wide[0]:
            raise ValueError(TOO_WIDE)
    values, best = _mic(*sides, _mic_work(sides[0]))
    grid = _mic_grid(xa.shape[0])
    params = {"alpha": MIC_ALPHA, "bound": grid.bound}
    if values[0] > 0.0:
        params["grid"] = grid.shapes[best[0]]
    return MeasureResult("MIC", float(values[0]), xa.shape[0], params=params)
