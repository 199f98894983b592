"""The test suite's own pytest settings must let a failure report itself, and
tier-1's Hypothesis properties must draw the same examples on every run."""

import subprocess
import sys
from pathlib import Path

from hypothesis import settings

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


def test_tier1_loads_the_derandomized_profile(request):
    named = request.config.getoption("hypothesis_profile")
    assert settings.get_current_profile_name() == (named or "tier1")
    assert settings.get_profile("tier1").derandomize and not settings.get_profile("random").derandomize
    if named is None:  # the tier-1 command names no profile
        assert settings.default.derandomize
