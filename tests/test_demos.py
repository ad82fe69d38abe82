"""Every demo script runs to completion against the current API.

Each script is copied into a temporary directory and run from there, so the
artifacts it writes next to itself land in that directory, not under
demos/output.
"""
import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path, capsys):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
