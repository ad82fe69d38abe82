"""Layer boundaries of depscope and the per-layer metrics derived from their spans.

The layers are the package's modules.  Each boundary is a module attribute
that depscope looks up at call time, so replacing the attribute puts a span
around every call that crosses it.  Names imported into several modules are
wrapped in each importing module.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

from depscope import MEASURE_IDS, cli, frame, indicators, search, verify
from depscope.measures import information, statistical

US_PER_CALL_WINDOWS = (100, 150, 200, 400)


def _rows(args, kwargs, result):
    return len(result)


def _trials(args, kwargs, result):
    return (len(result.records), sum(r.degenerate for r in result.records))


def anchor_evaluations(report) -> int:
    """Embedded plus control anchors a verification report scored or rejected."""
    return sum(
        m.embedded_trials + m.embedded_degenerate + m.control_trials + m.control_degenerate
        for m in report.measures
    )


def _evaluations(args, kwargs, result):
    return anchor_evaluations(result)


def _command(args, kwargs, result):
    return args[0][0] if args and args[0] else ""


def _evaluate_tag(origin):
    def tag(args, kwargs, result):
        return (origin, args[0], len(args[1]), result.degenerate)

    return tag


def scan_targets():
    """The scan entry points alone: enough to time the scan and count its trials."""
    return [
        (cli, "run_grid_search", "search.run", _trials),
        (search, "run_grid_search", "search.run", _trials),
        (cli, "run_verification", "verify.run", _evaluations),
        (cli, "run_synthetic_verification", "verify.run", _evaluations),
        (verify, "run_synthetic_verification", "verify.run", _evaluations),
    ]


def layer_targets():
    """Every layer boundary the traced run records."""
    targets = scan_targets() + [
        (cli, "main", "cli.main", _command),
        (cli, "load_ohlcv", "frame.read", _rows),
        (cli, "read_frame", "frame.read", _rows),
        (frame, "load_ohlcv", "frame.read", _rows),
        (cli, "write_csv", "frame.write", None),
        (cli, "build_feature_matrix", "indicators.build", None),
        (indicators, "build_feature_matrix", "indicators.build", None),
        (search, "label_trend", "search.label_trend", None),
        (search, "discretize", "shaping.discretize", None),
        (search, "equal_frequency_symbols", "measures.information.equal_frequency", None),
        (information, "equal_frequency_symbols", "measures.information.equal_frequency", None),
        (statistical, "cdist", "measures.statistical.cdist", None),
        (verify, "generate_synthetic", "verify.generate", None),
    ]
    for module in (cli, search):
        for writer in ("write_trial_log_csv", "write_trial_log_json", "write_parallel_coordinates"):
            targets.append((module, writer, "search.artifacts_write", None))
    for module, origin in ((search, "search"), (verify, "verify")):
        targets.append((module, "pair_arrays", "shaping.pair", None))
        targets.append((module, "evaluate_pairs", "measures.evaluate", _evaluate_tag(origin)))
    return targets


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run (see BENCHMARK.json for units)."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    rows = trials = degenerate = anchor_evals = 0
    report_s = 0.0
    evaluate = defaultdict(lambda: [0, 0, 0.0])  # measure -> calls, useful, self time
    per_window = defaultdict(list)  # (measure, W) -> durations of scored calls
    for name, duration, self_time, tag in tracer.spans():
        total[name] += duration
        own[name] += self_time
        calls[name] += 1
        if name == "frame.read":
            rows += tag
        elif name == "search.run":
            trials += tag[0]
            degenerate += tag[1]
        elif name == "cli.main" and tag == "report":
            report_s += duration
        elif name == "measures.evaluate":
            origin, measure, n, is_degenerate = tag
            entry = evaluate[measure]
            entry[0] += 1
            entry[1] += not is_degenerate
            entry[2] += self_time
            if not is_degenerate:
                per_window[measure, n].append(duration)
            anchor_evals += origin == "verify"

    metrics = {
        "frame.read_s": total["frame.read"],
        "frame.write_s": total["frame.write"],
        "frame.rows": rows,
        "indicators.build_s": total["indicators.build"],
        "shaping.pair_s": total["shaping.pair"],
        "shaping.discretize_s": total["shaping.discretize"],
        "shaping.discretize.calls": calls["shaping.discretize"],
    }
    for measure in MEASURE_IDS:
        n_calls, useful, self_time = evaluate[measure]
        metrics[f"measures.{measure}.calls"] = n_calls
        metrics[f"measures.{measure}.self_s"] = self_time
        metrics[f"measures.{measure}.useful_frac"] = useful / n_calls if n_calls else 0.0
        for w in US_PER_CALL_WINDOWS:
            durations = per_window.get((measure, w))
            metrics[f"measures.{measure}.w{w}.us_per_call"] = (
                statistics.median(durations) * 1e6 if durations else 0.0
            )
    metrics.update(
        {
            "measures.information.equal_frequency.calls": calls[
                "measures.information.equal_frequency"
            ],
            "measures.information.equal_frequency_s": total["measures.information.equal_frequency"],
            "measures.statistical.cdist.calls": calls["measures.statistical.cdist"],
            "measures.statistical.cdist_s": total["measures.statistical.cdist"],
            "search.self_s": own["search.run"],
            "search.label_trend_s": total["search.label_trend"],
            "search.artifacts_write_s": total["search.artifacts_write"],
            "search.trials": trials,
            "search.degenerate_frac": degenerate / trials if trials else 0.0,
            "verify.generate_s": total["verify.generate"],
            "verify.run_s": total["verify.run"],
            "verify.anchor_evals": anchor_evals,
            "cli.self_s": own["cli.main"],
            "cli.report_s": report_s,
        }
    )
    return metrics
