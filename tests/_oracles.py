"""Brute-force reference implementations the tests check the package against.

Everything here is written from the definitions in plain Python, favoring
obviousness over speed.  The two places that must agree with the package
bit for bit (equal-frequency edge placement and the smallest-first entropy
summation) follow the same pinned arithmetic contract, independently coded.

reference_grid_search is the grid search written one configuration at a
time, against which the package's column-major scan is checked.
reference_fit grows the regression tree one node at a time, each node
sorting its own rows and scanning one threshold at a time
(reference_best_split), against which the level-wise grower of a stack of
trees is checked bit for bit; reference_correlation is PC's arithmetic on
one pair of vectors, against which stacked rows are checked;
reference_distance_correlation is DC in the arithmetic of scipy's cdist
and ndarray.mean, against which |xi - xj| distances and np.add.reduce
means are checked by repr.
reference_equal_frequency bins one bin count at a time, against which the
binning of every count from one sort is checked bit for bit.
The reference_* trial-log writers and reader, reference_write_csv and
reference_read_frame write and parse one row and one cell at a time,
against which the column-at-a-time text layer is checked byte for byte
and message for message; reference_chunked has them read a chunk of rows
at a time, as the package's readers raise faults in the order they read.
"""
import contextlib
import csv
import io
import math
from bisect import bisect_right
from datetime import date
from itertools import islice

import numpy as np

from depscope.frame import (
    CsvParseError,
    FrameValidationError,
    TimeSeriesFrame,
    ValidationReport,
    validate_frame,
)
from depscope.measures import MeasureResult, degenerate_result
from depscope.search import (
    GROUP_AXES,
    TRIAL_CSV_HEADER,
    TrialLog,
    TrialRecord,
    evaluate_pairs,
    label_trend,
)
from depscope.shaping import make_sliding_windows, pair_arrays


def brute_pearson(xs, ys):
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        return None
    return sxy / math.sqrt(sxx * syy)


def brute_ranks(vals):
    order = sorted(range(len(vals)), key=lambda i: vals[i])
    ranks = [0.0] * len(vals)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def brute_spearman(xs, ys):
    return brute_pearson(brute_ranks(list(xs)), brute_ranks(list(ys)))


def _as_points(rows):
    return [tuple(r) if hasattr(r, "__len__") else (float(r),) for r in rows]


def brute_distance_correlation(xs, ys):
    ax = _as_points(xs)
    ay = _as_points(ys)
    n = len(ax)

    def centered(pts):
        d = [[math.dist(pts[i], pts[j]) for j in range(n)] for i in range(n)]
        row = [math.fsum(d[i]) / n for i in range(n)]
        col = [math.fsum(d[i][j] for i in range(n)) / n for j in range(n)]
        grand = math.fsum(row) / n
        return [
            [d[i][j] - row[i] - col[j] + grand for j in range(n)] for i in range(n)
        ]

    a = centered(ax)
    b = centered(ay)
    dcov2 = math.fsum(a[i][j] * b[i][j] for i in range(n) for j in range(n)) / (n * n)
    dvx = math.fsum(a[i][j] ** 2 for i in range(n) for j in range(n)) / (n * n)
    dvy = math.fsum(b[i][j] ** 2 for i in range(n) for j in range(n)) / (n * n)
    if dvx <= 0.0 or dvy <= 0.0:
        return None
    return min(math.sqrt(max(dcov2, 0.0) / math.sqrt(dvx * dvy)), 1.0)


def reference_distance_correlation(xs, ys):
    """DC in the arithmetic of scipy's cdist and ndarray.mean, the result or the ValueError of
    distance_correlation on finite paired points.

    Each side's squared differences are summed column by column and
    rooted; the distances are centred as d - row mean - column mean + grand
    mean, and dCov^2 is the mean of the elementwise product.
    """
    points = [np.asarray(side, dtype=np.float64) for side in (xs, ys)]
    points = [p.reshape(p.shape[0], -1) for p in points]
    n = points[0].shape[0]

    def centered(p):
        squares = np.zeros((n, n))
        for column in p.T:
            diff = np.subtract.outer(column, column)
            squares += np.square(diff)
        d = np.sqrt(squares)
        c = d - d.mean(axis=1, keepdims=True) - d.mean(axis=0, keepdims=True) + d.mean()
        return c, float(np.square(c).mean())

    with np.errstate(over="ignore", invalid="ignore"):
        (a, dvar_x), (b, dvar_y) = centered(points[0]), centered(points[1])
        dvar = dvar_x * dvar_y
        if not (math.isfinite(dvar_x) and math.isfinite(dvar_y)) or dvar == math.inf:
            raise ValueError("distances overflow")
        if dvar == 0.0:
            if any((p == p[0]).all() for p in points):
                return degenerate_result("DC", n, "zero distance variance")
            raise ValueError("distance variance underflows to zero")
        dcov2 = max(float((a * b).mean()), 0.0)
    return MeasureResult("DC", min(math.sqrt(dcov2 / math.sqrt(dvar)), 1.0), n)


def reference_correlation(x, y):
    """Pearson's r of two vectors as sxy/sqrt(sxx*syy) about their means, one pair at a time.

    The arithmetic each stacked row of the package must equal bit for bit:
    1-D means and dot products, one sqrt, clipped to [-1, 1].  Returns
    "constant" when either side's min equals its max, and "refused" when
    sxx*syy is not a positive finite float.
    """
    if x.min() == x.max() or y.min() == y.max():
        return "constant"
    with np.errstate(all="ignore"):
        dx = x - x.mean()
        dy = y - y.mean()
        product = (dx @ dx) * (dy @ dy)
    if not 0.0 < product < math.inf:
        return "refused"
    return min(1.0, max(-1.0, float((dx @ dy) / math.sqrt(product))))


def reference_best_split(xs, ys, min_leaf):
    """Scan (feature, midpoint threshold) candidates for the lowest child SSE.

    Features are visited in index order and thresholds in ascending order
    with strict improvement required, so ties resolve to the lowest feature
    index and then the lowest threshold.  The SSE arithmetic is the
    package's, term for term, so the result must be equal, not close.  A
    midpoint that rounds up to the upper value or overflows falls back to
    the lower value, as scikit-learn's splitter does.
    """
    n = ys.shape[0]
    total = ys.sum()
    total_sq = (ys * ys).sum()
    parent_sse = total_sq - total * total / n
    best = None
    best_sse = parent_sse
    for f in range(xs.shape[1]):
        order = np.argsort(xs[:, f], kind="stable")
        sv = xs[order, f]
        sy = ys[order]
        csum = np.cumsum(sy)
        csq = np.cumsum(sy * sy)
        for k in range(min_leaf, n - min_leaf + 1):
            if sv[k - 1] == sv[k]:
                continue
            left_sse = csq[k - 1] - csum[k - 1] * csum[k - 1] / k
            rsum = total - csum[k - 1]
            right_sse = (total_sq - csq[k - 1]) - rsum * rsum / (n - k)
            sse = max(left_sse, 0.0) + max(right_sse, 0.0)
            if sse < best_sse:
                best_sse = sse
                lower, upper = float(sv[k - 1]), float(sv[k])
                threshold = (lower + upper) / 2.0
                if threshold == upper or math.isinf(threshold):
                    threshold = lower
                best = (f, threshold, k)
    return best


def reference_fit(xs, ys, max_depth, min_leaf):
    """The regression tree's leaf sizes, left to right, and its in-sample predictions,
    grown node by node.

    Every node finds its split with reference_best_split on its own rows and
    sends the rows at or below the threshold left; each leaf writes its mean
    into the predictions of its rows.
    """
    predictions = np.empty(ys.shape[0])
    leaves = []

    def grow(rows, depth_left):
        found = reference_best_split(xs[rows], ys[rows], min_leaf) if depth_left else None
        if found is None:
            predictions[rows] = float(ys[rows].mean())
            leaves.append(len(rows))
            return
        f, threshold, _ = found
        mask = xs[rows, f] <= threshold
        grow(rows[mask], depth_left - 1)
        grow(rows[~mask], depth_left - 1)

    grow(np.arange(ys.shape[0]), max_depth)
    return leaves, predictions


def sorted_entropy(counts, n):
    """Entropy in bits, probabilities summed smallest-first (the pinned order)."""
    ps = sorted(c / n for c in counts if c)
    total = 0.0
    for p in ps:
        total += p * math.log2(p)
    return -total if total != 0.0 else 0.0


def brute_entropy(symbols):
    symbols = list(symbols)
    counts = {}
    for s in symbols:
        counts[s] = counts.get(s, 0) + 1
    return sorted_entropy(counts.values(), len(symbols))


def _count(symbols):
    counts = {}
    for s in symbols:
        counts[s] = counts.get(s, 0) + 1
    return counts


def brute_mi(xs, ys):
    """I(X;Y) in bits via H(X) + H(Y) - H(X,Y) with fsum entropies."""
    n = len(xs)

    def h(counts):
        return -math.fsum((c / n) * math.log2(c / n) for c in counts.values())

    return max(h(_count(xs)) + h(_count(ys)) - h(_count(zip(xs, ys))), 0.0)


def brute_conditional_entropy(xs, ys):
    """H(X|Y) in bits: fsum over y groups of p(y) H(X|y)."""
    groups = {}
    for x, y in zip(xs, ys):
        groups.setdefault(y, []).append(x)
    n = len(xs)
    terms = []
    for y, members in groups.items():
        ny = len(members)
        counts = _count(members)
        hy = -math.fsum((c / ny) * math.log2(c / ny) for c in counts.values())
        terms.append((ny / n) * hy)
    return math.fsum(terms)


def brute_information_gain(parent, assignment):
    return brute_mi(list(parent), list(assignment))


def pinned_mi(xs, ys):
    """I(X;Y) in the package's pinned arithmetic: H(X) + H(Y) - H(X,Y), each by sorted_entropy."""
    n = len(xs)

    def h(symbols):
        return sorted_entropy(_count(symbols).values(), n)

    return max(h(xs) + h(ys) - h(zip(xs, ys)), 0.0)


def pinned_information_gain(parent, assignment):
    """IG in the package's pinned arithmetic: branches in ascending order, each by sorted_entropy.

    Ascending order is the package's code order for a vector of symbols and
    for the feature-code tuples of a search's feature sets.
    """
    n = len(parent)
    branches = {}
    for s, t in zip(parent, assignment):
        branches.setdefault(t, []).append(s)
    weighted = 0.0
    for t in sorted(branches):
        members = branches[t]
        weighted += (len(members) / n) * sorted_entropy(_count(members).values(), len(members))
    return max(sorted_entropy(_count(parent).values(), n) - weighted, 0.0)


def brute_synergy(feature_lists, ys):
    joint = list(zip(*feature_lists))
    total = brute_mi(joint, list(ys))
    for f in feature_lists:
        total -= brute_mi(list(f), list(ys))
    return total


def brute_equal_frequency(values, bins):
    vals = [float(v) for v in values]
    if bins == 1:
        return [0] * len(vals)
    s = sorted(vals)
    n = len(s)
    edges = []
    for k in range(1, bins):
        pos = (k / bins) * (n - 1)
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        edges.append(s[lo] + (pos - lo) * (s[hi] - s[lo]))
    return [bisect_right(edges, v) for v in vals]


def reference_equal_frequency(values, bins):
    """Equal-frequency codes at one bin count, made the way equal_frequency_symbols made them.

    One sort, each edge in Python floats, then numpy's searchsorted.  Values
    whose span overflows float64 would make edges of inf or NaN, out of
    order; the package refuses those, so they are not compared here.
    """
    v = np.asarray(values, dtype=np.float64)
    s = np.sort(v)
    n = v.shape[0]
    edges = []
    for k in range(1, bins):
        pos = (k / bins) * (n - 1)
        lo = int(pos)
        frac = pos - lo
        hi = min(lo + 1, n - 1)
        edges.append(float(s[lo]) + frac * (float(s[hi]) - float(s[lo])))
    return np.searchsorted(np.asarray(edges), v, side="right").astype(np.int64)


def brute_mic_scores(xs, ys, alpha=0.6):
    """Every admissible grid shape with its normalized MI, in scan order, bit-exact entropies."""
    n = len(xs)
    bound = max(n**alpha, 5.0)
    scores = []
    for gx in range(2, n + 1):
        if gx * 2 >= bound:
            break
        xsym = brute_equal_frequency(xs, gx)
        for gy in range(2, n + 1):
            if gx * gy >= bound:
                break
            ysym = brute_equal_frequency(ys, gy)
            hx = sorted_entropy(_count(xsym).values(), n)
            hy = sorted_entropy(_count(ysym).values(), n)
            hxy = sorted_entropy(_count(zip(xsym, ysym)).values(), n)
            scores.append(((gx, gy), max(hx + hy - hxy, 0.0) / math.log2(min(gx, gy))))
    return scores


def brute_mic(xs, ys, alpha=0.6):
    """Exhaustive grid scan over the same admissible shapes, bit-exact entropies."""
    best = 0.0
    for _, m in brute_mic_scores(xs, ys, alpha):
        if m > best:
            best = m
    return min(best, 1.0)


def brute_wma(vals, n):
    out = [math.nan] * len(vals)
    denom = n * (n + 1) / 2
    for i in range(n - 1, len(vals)):
        out[i] = math.fsum((j + 1) * vals[i - n + 1 + j] for j in range(n)) / denom
    return out


def brute_hma(vals, n):
    half = brute_wma(vals, n // 2)
    full = brute_wma(vals, n)
    raw = [2.0 * a - b for a, b in zip(half, full)]
    return brute_wma(raw, int(round(math.sqrt(n))))


def brute_ema(vals, n):
    alpha = 2.0 / (n + 1.0)
    out = []
    acc = None
    for v in vals:
        acc = v if acc is None else acc + alpha * (v - acc)
        out.append(acc)
    return out


def brute_returns(vals, d=1):
    out = [math.nan] * len(vals)
    for i in range(d, len(vals)):
        out[i] = vals[i] / vals[i - d] - 1.0
    return out


def brute_macd(close):
    if len(close) < 26:
        nan = [math.nan] * len(close)
        return nan, list(nan)
    fast = brute_ema(close, 12)
    slow = brute_ema(close, 26)
    line = [a - b for a, b in zip(fast, slow)]
    return line, brute_ema(line, 9)


def brute_obv(close, volume):
    out = [0.0]
    for i in range(1, len(close)):
        step = close[i] - close[i - 1]
        sign = 1 if step > 0 else (-1 if step < 0 else 0)
        out.append(out[-1] + sign * volume[i])
    return out


def brute_atr(high, low, close, n=14):
    t = len(high)
    out = [math.nan] * t
    if t < n:
        return out
    tr = [high[0] - low[0]]
    for i in range(1, t):
        tr.append(
            max(high[i] - low[i], abs(high[i] - close[i - 1]), abs(low[i] - close[i - 1]))
        )
    acc = sum(tr[:n]) / n
    out[n - 1] = acc
    for i in range(n, t):
        acc = acc + (tr[i] - acc) / n
        out[i] = acc
    return out


def brute_rsi(close, n=14):
    t = len(close)
    out = [math.nan] * t
    if t <= n:
        return out
    gains = []
    losses = []
    for i in range(1, t):
        step = close[i] - close[i - 1]
        gains.append(max(step, 0.0))
        losses.append(max(-step, 0.0))

    def value(g, l):
        if l == 0.0:
            return 50.0 if g == 0.0 else 100.0
        return 100.0 - 100.0 / (1.0 + g / l)

    avg_gain = sum(gains[:n]) / n
    avg_loss = sum(losses[:n]) / n
    out[n] = value(avg_gain, avg_loss)
    for i in range(n, t - 1):
        avg_gain = avg_gain + (gains[i] - avg_gain) / n
        avg_loss = avg_loss + (losses[i] - avg_loss) / n
        out[i + 1] = value(avg_gain, avg_loss)
    return out


def brute_window_anchors(length, window, step, horizon):
    anchors = []
    a = window - 1
    while a + horizon < length:
        anchors.append(a)
        a += step
    return anchors


def reference_grid_search(frame, space):
    """The trial records of run_grid_search, one configuration and one anchor at a time.

    Each (window, feature set, target, measure) shapes its own windows with
    make_sliding_windows and pair_arrays, scores each anchor with
    evaluate_pairs (or flags it when it has fewer than min_samples pairs)
    and labels each trial's trend on its own.
    """
    close = frame.column("close")
    records = []
    for window in space.window_sizes:
        horizon = space.horizon if space.horizon is not None else window
        for features in space.feature_sets:
            for target in space.targets:
                for measure in space.measures:
                    dataset = make_sliding_windows(
                        frame, features, target, window, space.step, horizon
                    )
                    for sample in dataset.samples:
                        xs, ys = pair_arrays(sample)
                        if xs.shape[0] < space.min_samples:
                            value, degenerate = math.nan, True
                        else:
                            r = evaluate_pairs(
                                measure, xs, ys,
                                bin_width=space.bin_width, feature_bins=space.feature_bins,
                            )
                            value, degenerate = r.value, r.degenerate
                        records.append(
                            TrialRecord(
                                len(records), window, features, target, measure,
                                str(sample.anchor_time), label_trend(close, sample.anchor),
                                value, degenerate,
                            )
                        )
    return records


# CSV text of the trial fields that are not written with str(), and the parsers back.
_FORMATTERS = {
    "features": "|".join,
    "objective": lambda v: repr(float(v)),
    "degenerate": lambda v: "true" if v else "false",
}
_PARSERS = {
    "trial_id": int,
    "window_size": int,
    "features": lambda text: tuple(text.split("|")),
    "objective": float,
    "degenerate": lambda text: text == "true",
}


def reference_cell(record, name):
    """One field of a trial as it appears in the CSV artifacts and in rankings."""
    return _FORMATTERS.get(name, str)(getattr(record, name))


def reference_csv_text(columns, records):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([reference_cell(r, name) for name in columns] for r in records)
    return buf.getvalue()


def reference_trial_log_csv(log_):
    """trials.csv, one row at a time through csv.writer."""
    return reference_csv_text(TRIAL_CSV_HEADER, log_.records)


def reference_parallel_coordinates(log_):
    scored = [r for r in log_.records if not r.degenerate]
    return reference_csv_text(GROUP_AXES + ("objective",), scored)


def reference_chunked(read, data, chunk, universal_newlines=False):
    """What read, a row-wise reader of whole CSV text, raises or returns when CSV bytes are
    read chunk rows at a time below the header, each chunk checked before the next is read.

    Decoded as UTF-8 all at once, so invalid UTF-8 anywhere raises
    UnicodeDecodeError first; with universal_newlines, as Path.read_text
    reads a path.  Then a chunk holding text the csv module cannot split into
    a row raises CsvParseError naming its line; else the first faulty row of
    the text through the chunk raises, as read raises it.  A frame is
    validated whole, after its last chunk.
    """
    text = data.decode("utf-8")
    if universal_newlines:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = io.StringIO(text).readlines()
    reader = csv.reader(lines)
    try:
        next(reader, None)
        while list(islice(filter(None, reader), chunk)):
            with contextlib.suppress(FrameValidationError):
                read("".join(lines[: reader.line_num]))
    except csv.Error as exc:
        raise CsvParseError(str(exc), line=reader.line_num) from None
    return read(text)


def reference_read_trial_log_csv(text):
    """The trial log in CSV text, one row at a time; the first faulty row raises."""
    reader = csv.reader(io.StringIO(text))
    if tuple(next(reader, ())) != TRIAL_CSV_HEADER:
        raise ValueError(f"expected header {','.join(TRIAL_CSV_HEADER)}")
    records = [_reference_trial(row, reader.line_num) for row in reader]
    return TrialLog(records=tuple(records), space=None, seed=-1)


def _reference_trial(row, line):
    where = f"line {line}:"
    if len(row) != len(TRIAL_CSV_HEADER):
        raise ValueError(f"{where} expected {len(TRIAL_CSV_HEADER)} cells, got {len(row)}")
    cells = dict(zip(TRIAL_CSV_HEADER, row))
    flag, objective = cells["degenerate"], cells["objective"]
    if flag not in ("true", "false"):
        raise ValueError(f"{where} degenerate must be true or false, got {flag!r}")
    try:
        record = TrialRecord(*[_PARSERS.get(name, str)(cell) for name, cell in cells.items()])
    except ValueError as exc:
        raise ValueError(f"{where} {exc}") from None
    if record.degenerate and not math.isnan(record.objective):
        raise ValueError(f"{where} a degenerate trial has objective nan, got {objective}")
    if not (record.degenerate or math.isfinite(record.objective)):
        raise ValueError(f"{where} a scored trial has a finite objective, got {objective}")
    return record


def assert_same_frame(a, b):
    """The two frames have the same dates, column names and values, NaN where NaN is."""
    assert a.column_names == b.column_names
    np.testing.assert_array_equal(a.timestamps, b.timestamps)
    for name in a.column_names:
        np.testing.assert_array_equal(a.column(name), b.column(name))


def reference_write_csv(frame):
    """write_csv's text, one row at a time through csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("date",) + frame.column_names)
    cols = [frame.columns[name] for name in frame.column_names]
    for i in range(len(frame)):
        writer.writerow([str(frame.timestamps[i])] + [repr(float(col[i])) for col in cols])
    return buf.getvalue()


def reference_read_frame(text, required_header=None):
    """A frame from CSV text, one row and one cell at a time.

    Lines are counted in rows, so they are physical lines only in a file
    without blank rows or line breaks inside cells.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise CsvParseError("empty input", line=1)
    header = tuple(rows[0])
    if required_header is not None and header != required_header:
        raise CsvParseError(
            f"header must be exactly {','.join(required_header)!r}, got {','.join(header)!r}",
            line=1,
        )
    if not header or header[0] != "date" or len(header) < 2:
        raise CsvParseError("header must start with 'date' and name at least one column", line=1)
    if len(set(header)) != len(header):
        raise CsvParseError("duplicate column names in header", line=1)

    n = len(rows) - 1
    dates = np.empty(n, dtype="datetime64[D]")
    values = np.full((n, len(header) - 1), np.nan)  # an empty cell stays NaN: "missing"
    for r, row in enumerate(rows[1:]):
        line = r + 2
        if len(row) != len(header):
            raise CsvParseError(f"expected {len(header)} fields, got {len(row)}", line=line)
        try:
            dates[r] = date.fromisoformat(row[0].strip())
        except ValueError:
            raise CsvParseError(f"bad ISO-8601 date {row[0]!r}", line=line) from None
        for c, cell in enumerate(row[1:]):
            cell = cell.strip()
            if cell:
                try:
                    values[r, c] = float(cell)
                except ValueError:
                    raise CsvParseError(
                        f"bad numeric value {cell!r} in column {header[c + 1]}", line=line
                    ) from None

    order = np.argsort(dates, kind="stable")
    columns = {name: values[order, c] for c, name in enumerate(header[1:])}
    frame = TimeSeriesFrame(timestamps=dates[order], columns=columns)
    issues = validate_frame(frame).issues
    if issues:
        issues = tuple(sorted(issues, key=lambda it: (it.row, it.column, it.kind)))
        raise FrameValidationError(ValidationReport(row_count=n, issues=issues))
    return frame
