"""Tests of the benchmark itself; run with: python3 -m pytest perfbench -q

They sit outside the repository's tests/ directory, so the Tier-1 suite
does not collect them.
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02), tag=lambda a, k, r: "leaf")

    def work():
        inner()
        inner()
        time.sleep(0.01)

    tracer.wrap("outer", work)()
    spans = {name: (duration, self_time) for name, duration, self_time, _ in tracer.spans()}
    duration, self_time = spans["outer"]
    assert duration >= 0.05
    assert 0.0 < self_time < duration - 0.035
    assert tracer.exact_counts() == {("inner", "leaf"): 2, ("outer", None): 1}


def test_installed_restores_attributes():
    import types

    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    tracer = Tracer()
    with tracer.installed([(module, "f", "layer.f", None)]):
        assert module.f is not original
        assert module.f(1) == 2
    assert module.f is original
    assert [name for name, *_ in tracer.spans()] == ["layer.f"]


def test_smoke_runs_every_workload_in_both_modes():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    assert lines[-1]["correct"] and lines[-1]["failed"] == 0
    runs = {(line["facts"]["workload"], line["facts"]["trace"]) for line in lines[:-1]}
    assert len(runs) == 8


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan_default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
