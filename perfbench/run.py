"""depscope benchmark: end-to-end metrics per workload, or per-layer metrics from traced runs.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan_default --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

--trace 0 sets the workload up SETUP_REPS times, each in a fresh
interpreter, and reports the median set-up time.  It then runs the pipeline
back to back for --seconds (at least MIN_REPS times) and reports wall time,
CPU time and trials per second averaged over all those runs, plus the peak
RSS of the process and its children.

--trace 1 runs the pipeline untraced with the workload's jobs (and with
jobs=1 when that differs), then traced with jobs=1 at least twice and for
--seconds.  The traced runs must make exactly the same calls; the per-layer
metrics are medians over them, and trace.overhead_s is the traced minus the
untraced jobs=1 wall time.

Every run's outputs are checked (see pipelines.check); at DEFAULT_SEED they
must also match the fingerprints recorded in expected.json.  The metric
names and units come from BENCHMARK.json.  The last line of stdout is the
result JSON; the line before it holds the run facts.  --smoke runs every
workload in both modes on a 400-row series.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 0
MIN_REPS = 3
SETUP_REPS = 3
MIN_TRACED_REPS = 2


@dataclass
class Rep:
    wall: float
    cpu: float
    scan_s: float
    trials: int
    fingerprint: dict
    tracer: object


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def setup_once(name: str, seed: int, workdir: Path, smoke: bool) -> float:
    command = [sys.executable, str(HERE / "prepare.py"), name, str(seed), str(workdir)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def run_once(workload, workdir: Path, seed: int, smoke: bool, jobs: int, traced: bool) -> Rep:
    """Run the pipeline once with spans at the scan entry points, or at every layer."""
    import layers
    import pipelines
    from spans import Tracer

    shutil.rmtree(workdir / "out", ignore_errors=True)
    tracer = Tracer()
    targets = layers.layer_targets() if traced else layers.scan_targets()
    with tracer.installed(targets):
        cpu0 = cpu_seconds()
        started = perf_counter()
        outcome = pipelines.run(workload, workdir, seed, smoke, jobs)
        wall = perf_counter() - started
        cpu = cpu_seconds() - cpu0
    scan_span = "verify.run" if workload.space is None else "search.run"
    scan_s = sum(d for name, d, _, _ in tracer.spans() if name == scan_span)
    fingerprint = pipelines.check(workload, workdir, outcome, smoke)
    return Rep(wall, cpu, scan_s, outcome.trials, fingerprint, tracer if traced else None)


class Session:
    """One benchmark run: counts attempted and failed pipeline runs, checks fingerprints."""

    def __init__(self, workload, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.workdir = WORK / f"{workload.name}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.fingerprint = None
        if seed == DEFAULT_SEED:
            expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
            self.fingerprint = expected["smoke" if smoke else "full"][workload.name]

    def run(self, jobs: int, traced: bool = False) -> Rep | None:
        self.attempted += 1
        try:
            rep = run_once(self.workload, self.workdir, self.seed, self.smoke, jobs, traced)
            if self.fingerprint is None:
                self.fingerprint = rep.fingerprint
            elif rep.fingerprint != self.fingerprint:
                raise AssertionError(
                    f"outputs differ from the expected ones (jobs={jobs}, traced={traced}):\n"
                    f"got      {json.dumps(rep.fingerprint, sort_keys=True)}\n"
                    f"expected {json.dumps(self.fingerprint, sort_keys=True)}"
                )
            return rep
        except Exception:  # any failure counts against the run and is reported
            self.failed += 1
            traceback.print_exc()
            return None


def end_to_end(session: Session, seconds: float, min_reps: int, setup_reps: int, facts: dict):
    workload = session.workload
    setups = [
        setup_once(workload.name, session.seed, session.workdir, session.smoke)
        for _ in range(setup_reps)
    ]
    reps = []
    started = perf_counter()
    # Stop before a run that would likely end past the deadline.
    while len(reps) < min_reps or (
        perf_counter() - started + statistics.median(r.wall for r in reps) <= seconds
    ):
        rep = session.run(workload.jobs)
        if rep is None:
            break
        reps.append(rep)
    facts.update(
        setup_s=setups,
        pipeline_s=[r.wall for r in reps],
        trials=[r.trials for r in reps],
    )
    if not reps:
        return {}
    # Averages over the whole measured window, not medians of runs: on a
    # shared host the CPU speed drifts between regimes that last tens of
    # seconds, and a median picks one regime where the average weighs them.
    return {
        "pipeline_s": sum(r.wall for r in reps) / len(reps),
        "trials_per_s": sum(r.trials for r in reps) / sum(r.scan_s for r in reps),
        "setup_s": statistics.median(setups),
        "cpu_s": sum(r.cpu for r in reps) / len(reps),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(session: Session, seconds: float, facts: dict):
    import layers
    import pipelines

    workload = session.workload
    pipelines.write_inputs(workload, session.workdir, session.seed, session.smoke)
    base = session.run(workload.jobs)
    serial = base if workload.jobs == 1 else session.run(1)
    if base is None or serial is None:
        return {}
    traced = []
    counts = None
    started = perf_counter()
    while len(traced) < MIN_TRACED_REPS or perf_counter() - started < seconds:
        rep = session.run(1, traced=True)
        if rep is None:
            break
        rep_counts = rep.tracer.exact_counts()
        if counts is None:
            counts = rep_counts
        elif rep_counts != counts:
            session.failed += 1
            diff = (rep_counts - counts) + (counts - rep_counts)
            print(f"traced runs made different calls: {sorted(diff.items())[:10]}", file=sys.stderr)
            break
        traced.append((rep.wall, layers.layer_metrics(rep.tracer)))
    if len(traced) < MIN_TRACED_REPS:
        return {}
    traced_wall = statistics.median(wall for wall, _ in traced)
    metrics = {
        name: statistics.median(m[name] for _, m in traced) for name in traced[0][1]
    }
    metrics["search.cpu_util"] = base.cpu / (base.wall * workload.jobs)
    metrics["trace.overhead_s"] = traced_wall - serial.wall
    facts.update(
        untraced_pipeline_s=base.wall,
        untraced_jobs1_pipeline_s=serial.wall,
        traced_pipeline_s=[wall for wall, _ in traced],
        trace_overhead_s=metrics["trace.overhead_s"],
        trials=base.trials,
        spans_per_traced_run=sum(counts.values()),
    )
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run one workload; return (result JSON object, run facts)."""
    import numpy
    import scipy

    import pipelines

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if trace else "end_to_end"]
    workload = pipelines.WORKLOADS[name]
    session = Session(workload, seed, smoke)
    facts = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "rows": workload.length(smoke),
        "jobs": workload.jobs,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_1m_start": os.getloadavg()[0],
    }
    try:
        if trace:
            metrics = per_layer(session, seconds, facts)
        else:
            metrics = end_to_end(
                session, seconds, 1 if smoke else MIN_REPS, 1 if smoke else SETUP_REPS, facts
            )
    finally:
        shutil.rmtree(session.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    facts["loadavg_1m_end"] = os.getloadavg()[0]
    facts["failed_frac"] = session.failed / session.attempted if session.attempted else 1.0
    if metrics and set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(metrics)}")
    result = {
        "correct": session.failed == 0 and bool(metrics),
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
            if m["name"] in metrics
        },
    }
    return result, facts


def smoke() -> int:
    import pipelines

    ok = True
    attempted = failed = 0
    for name in pipelines.WORKLOADS:
        for trace in (False, True):
            result, facts = run_workload(name, DEFAULT_SEED, 0.0, trace, smoke=True)
            print(json.dumps({"facts": facts, "correct": result["correct"]}))
            ok &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": {}}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload on a 400-row series")
    args = parser.parse_args(argv)

    if not (SRC / "depscope" / "__init__.py").is_file():
        print(f"error: no depscope sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import depscope

    if Path(depscope.__file__).resolve().parent != SRC / "depscope":
        print(f"error: imported depscope from {depscope.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    import pipelines

    if args.workload not in pipelines.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(pipelines.WORKLOADS)}")
    result, facts = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
