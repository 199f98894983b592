"""The test suite's own pytest settings must let a failure report itself."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_five(x):
    assert x < 5
"""


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    # with warnings as errors, a deprecation raised inside Hypothesis's report
    # hook used to end the run in INTERNALERROR (exit 3) before the example
    (tmp_path / "test_prop.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout[-2000:] + run.stderr[-2000:]
    assert "Falsifying example" in run.stdout
