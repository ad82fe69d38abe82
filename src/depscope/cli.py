"""Command-line front end.

Subcommands: ingest, features, measure, search, verify, report.  Exit codes:
0 success, 1 I/O failure, 2 invalid input or configuration, 3 completed but
every result was degenerate or inconclusive (outputs are still written).
The DEPSCOPE_LOG environment variable sets the logging level.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from .frame import _emit, _write_table, load_ohlcv, read_frame, write_csv
from .indicators import build_feature_matrix, standard_indicator_specs
from .measures.result import MEASURES
from .search import (
    GROUP_AXES,
    SearchSpace,
    TREND_LABELS,
    check_binning,
    check_windows,
    correlate_measure_with_scores,
    default_search_space,
    evaluate_pairs,
    rank_hyperparameters,
    read_trial_log_csv,
    run_grid_search,
    scan_window,
    write_parallel_coordinates,
    write_trial_log_csv,
    write_trial_log_json,
)
from .verify import (
    EMBEDDINGS,
    VERIFY_MEASURES,
    SyntheticSpec,
    check_series,
    run_synthetic_verification,
    run_verification,
    write_verification_report,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_DEGENERATE = 3


def _parse_measures(text: str) -> tuple[str, ...]:
    """Measure ids of comma-separated CLI names: any case of a lower-case id or a row's names."""
    ids = {name: m.id for m in MEASURES for name in (m.id.lower(), *m.names)}
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        canonical = ids.get(token.lower())
        if canonical is None:
            raise ValueError(f"unknown measure {token!r}; known names are {sorted(ids)}")
        out.append(canonical)
    if not out:
        raise ValueError("at least one measure is required")
    return tuple(out)


def _parse_names(text: str) -> tuple[str, ...]:
    names = tuple(t.strip() for t in text.split(",") if t.strip())
    if not names:
        raise ValueError("expected a comma-separated list of names")
    return names


def _parse_feature_sets(text: str) -> tuple[tuple[str, ...], ...]:
    # Sets are comma-separated; members inside a set are joined with '+'.
    sets = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        members = tuple(m.strip() for m in chunk.split("+") if m.strip())
        if not members:
            raise ValueError("feature sets must be non-empty")
        sets.append(members)
    if not sets:
        raise ValueError("at least one feature set is required")
    return tuple(sets)


def _parse_windows(text: str) -> tuple[int, ...]:
    """The widths in --windows; an empty list or one that is not of integers is refused."""
    try:
        windows = tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        windows = ()
    if not windows:
        raise ValueError(f"--windows must be comma-separated integers, got {text!r}")
    return windows


def _axis(args, flag: str, parse, default):
    """A search axis: parse of the flag's value, or default when the flag is not given; a
    value that parse refuses, an empty one too, is named by flag and value."""
    text = getattr(args, flag)
    if text is None:
        return default
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"--{flag} {text!r}: {exc}") from None


def _binning(args) -> dict:
    """bin_width and feature_bins of --bin-bp and --feature-bins; bad values are named by flag."""
    bin_width = args.bin_bp * 1e-4
    check_binning(
        bin_width, args.feature_bins,
        width=f"--bin-bp (target bin width in basis points, got {args.bin_bp:g})",
        bins=f"--feature-bins (feature bin count, got {args.feature_bins})",
    )
    return {"bin_width": bin_width, "feature_bins": args.feature_bins}


def _write_rows(args, header: tuple[str, ...], rows: list[tuple[str, ...]], payload) -> None:
    """Write the rows of text cells under header as CSV, or payload as JSON, as --format says,
    to --output or stdout."""
    destination = sys.stdout if args.output is None else args.output
    if args.format == "json":
        _emit((json.dumps(payload, indent=2) + "\n",), destination)
    else:
        _write_table(header, [list(zip(*rows))], destination)


def _check_counts(args, *flags: str) -> None:
    """Refuse a window, step or horizon flag below 1, naming the flag and its value."""
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise ValueError(f"--{flag} must be >= 1, got {value}")


def cmd_ingest(args) -> int:
    frame = load_ohlcv(args.input)
    print(f"rows: {len(frame)}")
    print(f"span: {frame.timestamps[0]} .. {frame.timestamps[-1]}" if len(frame) else "span: none")
    print(f"columns: {', '.join(frame.column_names)}")
    if args.output is not None:
        write_csv(frame, args.output)
        print(f"wrote {args.output}")
    return EXIT_OK


def cmd_features(args) -> int:
    frame = load_ohlcv(args.input)
    matrix = build_feature_matrix(frame, standard_indicator_specs())
    write_csv(matrix, args.output)
    derived = [c for c in matrix.column_names if c.startswith(("f_", "t_"))]
    print(f"rows: {len(matrix)}")
    print(f"derived columns: {', '.join(derived)}")
    print(f"wrote {args.output}")
    return EXIT_OK


def _measure_whole_series(args, frame, features, measures) -> list[dict]:
    xs = np.column_stack([frame.column(c) for c in features])
    ys = frame.column(args.target)
    binning = _binning(args)
    rows = []
    for measure in measures:
        result = evaluate_pairs(measure, xs, ys, **binning)
        rows.append(
            {
                "measure": measure,
                "value": None if result.degenerate else result.value,
                "sample_size": result.sample_size,
                "degenerate": result.degenerate,
                "reason": result.params.get("reason", ""),
            }
        )
    return rows


def _measure_windowed(args, frame, features, measures) -> list[dict]:
    horizon = args.horizon if args.horizon is not None else args.window
    _, values, reasons = scan_window(
        frame, args.window, (features,), (args.target,), measures,
        step=args.step, horizon=horizon, **_binning(args),
    )
    rows = []
    for i, measure in enumerate(measures):
        scored = values[reasons[:, i] == "", i]
        why = f": {reasons[0, i]}" if len(reasons) else ""  # the first anchor's reason
        rows.append(
            {
                "measure": measure,
                "value": float(np.median(scored)) if scored.size else None,
                "sample_size": len(values),
                "degenerate": not scored.size,
                "reason": "" if scored.size else "no scorable anchors" + why,
            }
        )
    return rows


def cmd_measure(args) -> int:
    _check_counts(args, "window", "step", "horizon")
    features = _axis(args, "features", _parse_names, None)
    measures = _axis(args, "measures", _parse_measures, None)
    frame = read_frame(args.input)
    if args.window is None:
        rows = _measure_whole_series(args, frame, features, measures)
    else:
        rows = _measure_windowed(args, frame, features, measures)
    cells = [
        (r["measure"], "nan" if r["value"] is None else repr(float(r["value"])),
         str(r["sample_size"]), "true" if r["degenerate"] else "false")
        for r in rows
    ]
    _write_rows(args, ("measure", "value", "sample_size", "degenerate"), cells, rows)
    if all(r["degenerate"] for r in rows):
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_search(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    if args.min_samples < 2:
        raise ValueError(f"--min-samples must be >= 2, got {args.min_samples}")
    _check_counts(args, "step", "horizon")
    base = default_search_space()
    windows = base.window_sizes if args.windows is None else _parse_windows(args.windows)
    check_windows(windows, name="--windows")
    space = SearchSpace(
        window_sizes=windows,
        feature_sets=_axis(args, "features", _parse_feature_sets, base.feature_sets),
        targets=_axis(args, "targets", _parse_names, base.targets),
        measures=_axis(args, "measures", _parse_measures, base.measures),
        horizon=args.horizon,
        step=args.step,
        min_samples=args.min_samples,
        **_binning(args),
    )
    frame = read_frame(args.input)
    log_ = run_grid_search(frame, space, seed=args.seed, jobs=args.jobs)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trial_log_csv(log_, out_dir / "trials.csv")
    write_trial_log_json(log_, out_dir / "trials.json")
    write_parallel_coordinates(log_, out_dir / "parallel_coordinates.csv")
    scored = [r for r in log_.records if not r.degenerate]
    print(f"trials: {len(log_.records)} ({len(scored)} scored)")
    print(f"elapsed: {log_.elapsed_s:.2f}s")
    print(f"wrote {out_dir / 'trials.csv'}")
    print(f"wrote {out_dir / 'trials.json'}")
    print(f"wrote {out_dir / 'parallel_coordinates.csv'}")
    if not scored:
        return EXIT_DEGENERATE
    ranking = rank_hyperparameters(log_, "features")
    best = ranking.best
    print(
        f"best feature set by median objective: {best.value} "
        f"(median {best.median_objective:.6g} over {best.trials} trials)"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_counts(args, "window", "step")
    if not 0 <= args.strength <= 1:
        raise ValueError(f"--strength must be within [0, 1], got {args.strength:g}")
    measures = _parse_measures(args.measures)
    if (args.embedded is None) != (args.control is None):
        raise ValueError("--embedded and --control must be given together")
    if args.embedded is not None:
        report = run_verification(
            load_ohlcv(args.embedded),
            load_ohlcv(args.control),
            measures=measures,
            window=args.window if args.window is not None else 100,
            step=args.step,
            **_binning(args),
        )
    else:
        check_series(args.length, args.lag, names=("--length", "--lag"))
        spec = SyntheticSpec(
            length=args.length,
            embedding=args.embedding,
            lag=args.lag,
            strength=args.strength,
            seed=args.seed,
        )
        report = run_synthetic_verification(
            spec,
            measures=measures,
            window=args.window,
            step=args.step,
            **_binning(args),
        )
    write_verification_report(report, sys.stdout if args.output is None else args.output)
    for m in report.measures:
        if m.inconclusive:
            print(f"INCONCLUSIVE {m.measure_id}: no scorable anchors")
            continue
        status = "PASS" if m.passed else "FAIL"
        print(
            f"{status} {m.measure_id}: embedded={m.embedded_median:.6g} "
            f"control={m.control_median:.6g} margin={m.margin:.6g}"
        )
    if report.any_inconclusive:
        return EXIT_DEGENERATE
    return EXIT_OK


def _read_scores(path: str) -> dict[str, float]:
    """The config-key scores of a JSON file: an object whose values are all finite numbers."""

    def number(text):  # NaN, Infinity, 1e999 and a 400-digit integer are not finite
        if not math.isfinite(float(text)):
            raise ValueError(f"{text} is not a finite number")
        return float(text)

    try:
        text = Path(path).read_text(encoding="utf-8")
        scores = json.loads(text, parse_constant=number, parse_float=number, parse_int=number)
    except ValueError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from None
    if not isinstance(scores, dict) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in scores.values()
    ):
        raise ValueError(f"{path}: scores must be a JSON object of numbers")
    return scores


def cmd_report(args) -> int:
    log_ = read_trial_log_csv(args.input)
    if args.scores is not None:
        scores = _read_scores(args.scores)
        result = correlate_measure_with_scores(log_, scores)
        value = "nan" if result.degenerate else f"{result.value:.6g}"
        print(
            f"rank correlation with external scores: {value} "
            f"over {result.params['overlap']} configurations"
        )
    ranking = rank_hyperparameters(log_, args.group_by, trend=args.trend)
    payload = {
        "group_by": ranking.group_by,
        "rows": [
            {"value": g.value, "median_objective": g.median_objective, "trials": g.trials}
            for g in ranking.rows
        ],
        "notice": ranking.notice,
    }
    cells = [(g.value, repr(g.median_objective), str(g.trials)) for g in ranking.rows]
    _write_rows(args, (ranking.group_by, "median_objective", "trials"), cells, payload)
    if ranking.notice:
        print(ranking.notice, file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--bin-bp",
        type=float,
        default=10.0,
        help="target bin width in basis points (default 10 = 0.001)",
    )
    parser.add_argument(
        "--feature-bins",
        type=int,
        default=8,
        help="equal-frequency bins for continuous features (default 8)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depscope",
        description="Dependence scanning for financial time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate an OHLCV csv, optionally rewrite it")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("features", help="derive the standard indicator matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(handler=cmd_features)

    p = sub.add_parser("measure", help="score dependence between columns")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None, help="default: stdout")
    p.add_argument("--features", required=True, help="comma-separated feature columns")
    p.add_argument("--target", required=True)
    p.add_argument("--measures", default="mi", help="comma-separated measure names")
    p.add_argument("--window", type=int, default=None, help="window width; omit for whole-series")
    p.add_argument("--step", type=int, default=100)
    p.add_argument("--horizon", type=int, default=None, help="default: the window width")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p)
    p.set_defaults(handler=cmd_measure)

    p = sub.add_parser("search", help="exhaustive grid search over configurations")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="directory for trials.csv/json")
    p.add_argument("--windows", default=None, help="comma-separated window widths")
    p.add_argument(
        "--features",
        default=None,
        help="comma-separated sets; join members of one set with '+'",
    )
    p.add_argument("--targets", default=None)
    p.add_argument("--measures", default=None)
    p.add_argument("--step", type=int, default=100)
    p.add_argument("--horizon", type=int, default=None, help="default: each window width")
    p.add_argument("--min-samples", type=int, default=100)
    p.add_argument(
        "--jobs", type=int, default=1, help="worker processes, at most one per anchor block"
    )
    p.add_argument("--seed", type=int, default=42, help="seed recorded in trials.json (default 42)")
    _add_common(p)
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("verify", help="planted-coupling detection check")
    p.add_argument("--output", default=None, help="report json (default: stdout)")
    p.add_argument("--embedded", default=None, help="OHLCV csv with a known coupling")
    p.add_argument("--control", default=None, help="OHLCV csv without the coupling")
    p.add_argument("--length", type=int, default=2000)
    p.add_argument("--embedding", choices=EMBEDDINGS, default="linear_lag")
    p.add_argument("--lag", type=int, default=100)
    p.add_argument("--strength", type=float, default=1.0)
    p.add_argument("--window", type=int, default=None, help="default: the planted lag")
    p.add_argument("--step", type=int, default=50)
    p.add_argument("--measures", default=",".join(VERIFY_MEASURES))
    p.add_argument("--seed", type=int, default=42, help="seeds only the synthetic series (default 42)")
    _add_common(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("report", help="rank configurations from a trial log")
    p.add_argument("--input", required=True, help="trials.csv from a search run")
    p.add_argument("--output", default=None, help="default: stdout")
    p.add_argument("--group-by", choices=GROUP_AXES, default="measure")
    p.add_argument("--trend", choices=TREND_LABELS, default=None)
    p.add_argument("--scores", default=None, help="json file of config-key scores")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=cmd_report)
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("DEPSCOPE_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_INVALID
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError) as exc:
        # str() of a KeyError quotes it; a UnicodeDecodeError's first argument is its codec.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
