"""Workloads of the depscope benchmark: inputs, user-facing pipelines and output checks.

Load is a closed loop: one caller runs one pipeline at a time in this
process.  Only scan_parallel starts worker processes (JOBS of them, through
run_grid_search's process pool).  The workload seed goes to
generate_synthetic; depscope itself only sees the generated series.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from depscope import (
    EMBEDDINGS,
    MEASURE_IDS,
    VALUE_RANGES,
    SearchSpace,
    SyntheticSpec,
    cli,
    default_search_space,
    frame,
    generate_synthetic,
    indicators,
    search,
    verify,
)

from layers import anchor_evaluations

JOBS = 2
LAG = 100
SMOKE_ROWS = 400
ARTIFACTS = ("trials.csv", "parallel_coordinates.csv")

SETS_ALL_SPACE = SearchSpace(
    window_sizes=(100, 200, 400),
    feature_sets=(
        ("f_ret_c_1",),
        ("f_vol_pct",),
        ("f_ret_c_hma_5",),
        ("f_rsi",),
        ("f_ret_c_1", "f_vol_pct"),
        ("f_vol_pct", "f_rsi"),
        ("f_c_macd", "f_atr"),
        ("f_ret_c_1", "f_vol_pct", "f_rsi"),
        ("f_vol_pct", "f_obv", "f_atr"),
    ),
    targets=("t_ret_c_1",),
    measures=MEASURE_IDS,
    step=200,
)
PARALLEL_SPACE = replace(default_search_space(), step=50)
VERIFY_EMBEDDINGS = tuple(e for e in EMBEDDINGS if e != "none")
VERIFY_STEP = 25


class CheckFailed(Exception):
    """An output of the program disagrees with what the benchmark expects."""


@dataclass(frozen=True)
class Outcome:
    trials: int  # anchor evaluations the pipeline made
    feature_rows: int  # rows of the feature matrix the search scanned (0 for verify_sweep)


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int  # length of the generated OHLCV series at full size
    space: SearchSpace | None = None  # None: the workload verifies instead of searching
    jobs: int = 1

    def length(self, smoke: bool) -> int:
        return SMOKE_ROWS if smoke else self.rows


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan_default", 2000, default_search_space()),  # the CLI's default space
        Workload("scan_sets_all", 2000, SETS_ALL_SPACE),
        Workload("scan_parallel", 1500, PARALLEL_SPACE, jobs=JOBS),
        Workload("verify_sweep", 2000),
    )
}


def _series(length: int, seed: int, strength: float = 1.0):
    spec = SyntheticSpec(
        length=length, embedding="nonlinear_lag", lag=LAG, strength=strength, seed=seed
    )
    return generate_synthetic(spec)


def write_inputs(workload: Workload, workdir: Path, seed: int, smoke: bool) -> None:
    """Generate the workload's input series and write them as OHLCV CSV files.

    verify_sweep has no input file: run_synthetic_verification generates
    its series from the seed itself.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    if workload.space is None:
        return
    length = workload.length(smoke)
    frame.write_csv(_series(length, seed), workdir / "input.csv")
    if workload.name == "scan_default":
        frame.write_csv(_series(length, seed + 1, strength=0.0), workdir / "control.csv")


def run(workload: Workload, workdir: Path, seed: int, smoke: bool, jobs: int) -> Outcome:
    """Run the workload's pipeline once; outputs go to workdir/out."""
    out = workdir / "out"
    out.mkdir(parents=True, exist_ok=True)
    if workload.name == "scan_default":
        return _run_cli(workdir, out, jobs)
    if workload.space is None:
        return _run_verify_sweep(workload.length(smoke), out, seed)
    return _run_scan(workdir / "input.csv", out, workload.space, jobs)


def _run_cli(workdir: Path, out: Path, jobs: int) -> Outcome:
    clean = workdir / "clean.csv"
    features = workdir / "features.csv"
    steps = [
        ["ingest", "--input", workdir / "input.csv", "--output", clean],
        ["features", "--input", clean, "--output", features],
        ["search", "--input", features, "--output", out, "--jobs", jobs],
        ["verify", "--embedded", clean, "--control", workdir / "control.csv",
         "--output", out / "verify.json"],
        ["report", "--input", out / "trials.csv", "--output", out / "report.csv"],
    ]
    for argv in steps:
        argv = [str(a) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise CheckFailed(f"depscope {argv[0]} exited with {code}")
    with open(out / "trials.csv", encoding="utf-8") as fh:
        trials = sum(1 for _ in fh) - 1
    with open(features, encoding="utf-8") as fh:
        feature_rows = sum(1 for _ in fh) - 1
    return Outcome(trials=trials, feature_rows=feature_rows)


def _run_scan(source: Path, out: Path, space: SearchSpace, jobs: int) -> Outcome:
    raw = frame.load_ohlcv(source)
    matrix = indicators.build_feature_matrix(raw, indicators.standard_indicator_specs())
    log = search.run_grid_search(matrix, space, jobs=jobs)
    search.write_trial_log_csv(log, out / "trials.csv")
    search.write_trial_log_json(log, out / "trials.json")
    search.write_parallel_coordinates(log, out / "parallel_coordinates.csv")
    return Outcome(trials=len(log.records), feature_rows=len(matrix))


def _run_verify_sweep(length: int, out: Path, seed: int) -> Outcome:
    evaluations = 0
    for embedding in VERIFY_EMBEDDINGS:
        spec = SyntheticSpec(length=length, embedding=embedding, lag=LAG, seed=seed)
        report = verify.run_synthetic_verification(spec, measures=MEASURE_IDS, step=VERIFY_STEP)
        verify.write_verification_report(report, out / f"verify_{embedding}.json")
        evaluations += anchor_evaluations(report)
    return Outcome(trials=evaluations, feature_rows=0)


# ---------------------------------------------------------------- checks


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _window_count(rows: int, window: int, step: int, horizon: int) -> int:
    # floor((T - W - H) / N) + 1 anchors, none when the frame is too short.
    return 0 if rows < window + horizon else (rows - window - horizon) // step + 1


def _expected_trials(space: SearchSpace, feature_rows: int) -> int:
    per_config = len(space.feature_sets) * len(space.targets) * len(space.measures)
    return per_config * sum(
        _window_count(feature_rows, w, space.step, space.horizon or w) for w in space.window_sizes
    )


def _in_range(measure: str, value: float) -> bool:
    lo, hi = VALUE_RANGES[measure]
    return math.isfinite(value) and lo <= value <= hi


def _check_trials(out: Path, space: SearchSpace, outcome: Outcome) -> None:
    with open(out / "trials.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = _expected_trials(space, outcome.feature_rows)
    if len(rows) != expected or outcome.trials != expected:
        raise CheckFailed(f"{len(rows)} trials logged, {expected} expected")
    scored = 0
    for index, row in enumerate(rows):
        if int(row["trial_id"]) != index:
            raise CheckFailed(f"trial ids out of order at row {index}")
        if row["measure"] not in space.measures:
            raise CheckFailed(f"unexpected measure {row['measure']!r}")
        objective = float(row["objective"])
        if row["degenerate"] == "true":
            if not math.isnan(objective):
                raise CheckFailed(f"degenerate trial {index} has objective {objective}")
        elif not _in_range(row["measure"], objective):
            raise CheckFailed(f"trial {index}: {row['measure']} = {objective} out of range")
        else:
            scored += 1
    with open(out / "parallel_coordinates.csv", encoding="utf-8") as fh:
        plotted = sum(1 for _ in fh) - 1
    if plotted != scored:
        raise CheckFailed(f"{plotted} parallel-coordinate rows for {scored} scored trials")


def _verdicts(report_path: Path, measures, anchors_per_side: int) -> dict[str, str]:
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    verdicts = {}
    for m in payload["measures"]:
        measure = m["measure_id"]
        if m["inconclusive"]:
            raise CheckFailed(f"{report_path.name}: {measure} inconclusive")
        for side in ("embedded", "control"):
            if m[f"{side}_trials"] + m[f"{side}_degenerate"] != anchors_per_side:
                raise CheckFailed(f"{report_path.name}: {measure} scored the wrong anchors")
            if not _in_range(measure, m[f"{side}_median"]):
                raise CheckFailed(f"{report_path.name}: {measure} {side} median out of range")
        verdicts[measure] = "PASS" if m["passed"] else "FAIL"
    if tuple(verdicts) != tuple(measures):
        raise CheckFailed(f"{report_path.name}: measures {tuple(verdicts)}")
    return verdicts


def _stable_report(path: Path) -> str:
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload.pop("created_utc")
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def check(workload: Workload, workdir: Path, outcome: Outcome, smoke: bool) -> dict:
    """Check one run's outputs and return their fingerprint.

    Raises CheckFailed on a wrong output.  The fingerprint holds the sha256
    of every deterministic artifact and the verification verdicts, so runs
    of the same inputs must return equal fingerprints.
    """
    out = workdir / "out"
    if workload.space is None:
        length = workload.length(smoke)
        anchors = _window_count(length - 1, LAG, VERIFY_STEP, LAG)
        fingerprint = {"verdicts": {}, "reports": {}}
        for embedding in VERIFY_EMBEDDINGS:
            path = out / f"verify_{embedding}.json"
            fingerprint["verdicts"][embedding] = _verdicts(path, MEASURE_IDS, anchors)
            fingerprint["reports"][embedding] = _stable_report(path)
        if outcome.trials != len(VERIFY_EMBEDDINGS) * len(MEASURE_IDS) * 2 * anchors:
            raise CheckFailed(f"{outcome.trials} anchor evaluations")
        return fingerprint

    space = workload.space
    _check_trials(out, space, outcome)
    fingerprint = {name: _sha256(out / name) for name in ARTIFACTS}
    if workload.name == "scan_default":
        # cli verify scans window 100 at step 50 over the frame reduced to
        # log-volume and next return, which drops the first row.
        anchors = _window_count(workload.length(smoke) - 1, LAG, 50, LAG)
        fingerprint["verdicts"] = _verdicts(out / "verify.json", ("PC", "MI", "DC", "MIC"), anchors)
        with open(out / "report.csv", encoding="utf-8", newline="") as fh:
            ranked = list(csv.DictReader(fh))
        if sorted(r["measure"] for r in ranked) != sorted(space.measures):
            raise CheckFailed("report.csv does not rank every measure")
        fingerprint["report.csv"] = _sha256(out / "report.csv")
    return fingerprint
