"""Every benchmark workload, run once at full size and seed 0, gives its recorded fingerprint.

The smoke digests cover 400-row series only: there a scan scores no window
above 100 and a verification fits in one anchor block.  At full size the
workloads score DC at n = 200 and 400 and scan several blocks a window.
This test reads perfbench/ and changes nothing there.
"""
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ("scan_default", "scan_sets_all", "scan_parallel", "verify_sweep"))
def test_full_size_workload_gives_its_seed_0_fingerprint(tmp_path, monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pipelines

    expected = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))["full"]
    workload = pipelines.WORKLOADS[name]
    pipelines.write_inputs(workload, tmp_path, 0, smoke=False)
    outcome = pipelines.run(workload, tmp_path, 0, smoke=False, jobs=workload.jobs)
    assert pipelines.check(workload, tmp_path, outcome, smoke=False) == expected[name]
