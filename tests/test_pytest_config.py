"""The suite's own pytest settings (``pyproject.toml``): the ``error``
warning filter must fail a test on a new warning without hiding the report
of a test that fails."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 5
'''


def test_a_failing_hypothesis_test_is_reported(tmp_path):
    # Hypothesis's failure report raises a third-party DeprecationWarning in
    # pytest's teardown; as an error it ended the run with an INTERNALERROR
    # (exit 3) that hid the falsifying example.
    (tmp_path / "test_probe.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    report = run.stdout + run.stderr
    assert run.returncode == 1, report
    assert "FAILED test_probe.py::test_small" in run.stdout, report
    assert "Falsifying example" in run.stdout, report
    assert "INTERNALERROR" not in report
