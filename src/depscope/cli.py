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
import os
import sys
from pathlib import Path

import numpy as np

from .frame import _emit, load_ohlcv, read_frame, validate_frame, write_csv
from .indicators import build_feature_matrix, standard_indicator_specs
from .measures.result import MEASURES
from .search import (
    GROUP_AXES,
    SearchSpace,
    TREND_LABELS,
    check_binning,
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
    return tuple(int(t.strip()) for t in text.split(",") if t.strip())


def _binning(args) -> dict:
    """bin_width and feature_bins of --bin-bp and --feature-bins; bad values are named by flag."""
    bin_width = args.bin_bp * 1e-4
    check_binning(
        bin_width, args.feature_bins,
        width=f"--bin-bp (target bin width in basis points, got {args.bin_bp:g})",
        bins=f"--feature-bins (feature bin count, got {args.feature_bins})",
    )
    return {"bin_width": bin_width, "feature_bins": args.feature_bins}


def cmd_ingest(args) -> int:
    frame = load_ohlcv(args.input)
    report = validate_frame(frame)
    print(f"rows: {len(frame)}")
    print(f"span: {frame.timestamps[0]} .. {frame.timestamps[-1]}")
    print(f"columns: {', '.join(frame.column_names)}")
    print(f"issues: {len(report.issues)}")
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
    _, scores = scan_window(
        frame, args.window, (features,), (args.target,), measures,
        step=args.step, horizon=horizon, **_binning(args),
    )
    rows = []
    for i, measure in enumerate(measures):
        values = [r[i].value for r in scores if not r[i].degenerate]
        rows.append(
            {
                "measure": measure,
                "value": float(np.median(values)) if values else None,
                "sample_size": len(scores),
                "degenerate": not values,
                "reason": "" if values else "no scorable anchors",
            }
        )
    return rows


def cmd_measure(args) -> int:
    frame = read_frame(args.input)
    features = _parse_names(args.features)
    measures = _parse_measures(args.measures)
    if args.window is None:
        rows = _measure_whole_series(args, frame, features, measures)
    else:
        rows = _measure_windowed(args, frame, features, measures)
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        lines = ["measure,value,sample_size,degenerate"]
        for r in rows:
            value = "nan" if r["value"] is None else repr(float(r["value"]))
            lines.append(
                f"{r['measure']},{value},{r['sample_size']},"
                f"{'true' if r['degenerate'] else 'false'}"
            )
        text = "\n".join(lines) + "\n"
    _emit(text, sys.stdout if args.output is None else args.output)
    if all(r["degenerate"] for r in rows):
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_search(args) -> int:
    frame = read_frame(args.input)
    base = default_search_space()
    space = SearchSpace(
        window_sizes=_parse_windows(args.windows) if args.windows else base.window_sizes,
        feature_sets=(
            _parse_feature_sets(args.features) if args.features else base.feature_sets
        ),
        targets=_parse_names(args.targets) if args.targets else base.targets,
        measures=_parse_measures(args.measures) if args.measures else base.measures,
        horizon=args.horizon,
        step=args.step,
        min_samples=args.min_samples,
        **_binning(args),
    )
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


def cmd_report(args) -> int:
    log_ = read_trial_log_csv(args.input)
    if args.scores is not None:
        scores = json.loads(Path(args.scores).read_text(encoding="utf-8"))
        result = correlate_measure_with_scores(log_, scores)
        value = "nan" if result.degenerate else f"{result.value:.6g}"
        print(
            f"rank correlation with external scores: {value} "
            f"over {result.params['overlap']} configurations"
        )
    ranking = rank_hyperparameters(log_, args.group_by, trend=args.trend)
    if args.format == "json":
        payload = {
            "group_by": ranking.group_by,
            "rows": [
                {
                    "value": g.value,
                    "median_objective": g.median_objective,
                    "trials": g.trials,
                }
                for g in ranking.rows
            ],
            "notice": ranking.notice,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"{ranking.group_by},median_objective,trials"]
        for g in ranking.rows:
            lines.append(f"{g.value},{repr(g.median_objective)},{g.trials}")
        text = "\n".join(lines) + "\n"
    _emit(text, sys.stdout if args.output is None else args.output)
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
    p.add_argument("--jobs", type=int, default=1)
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
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
