"""pytest.ini's warning filters report a failing property and go on to the next test.

On a failure, hypothesis's pytest plugin imports libcst to explain it, and
libcst makes a mypy_extensions.TypedDict, which warns DeprecationWarning.
Under error::DeprecationWarning alone that warning ended the session with
an INTERNALERROR after the first failure.
"""
import shutil
import subprocess
import sys
from pathlib import Path

INI = Path(__file__).resolve().parents[1] / "pytest.ini"

TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_a_failing_property(n):
    assert n != n


def test_a_passing_test():
    pass
'''


def test_a_failing_property_does_not_end_the_session(tmp_path):
    shutil.copy(INI, tmp_path / "pytest.ini")
    (tmp_path / "test_two.py").write_text(TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout[-2000:]
