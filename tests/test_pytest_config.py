"""The suite's pytest configuration reports a failing property test as a
failure: ``filterwarnings`` turns warnings into errors, and a warning raised
while Hypothesis builds its report must not turn that report into
INTERNALERROR lines."""

import subprocess
import sys
from pathlib import Path

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 5
"""


def test_a_failing_hypothesis_test_reports_one_failed_line(tmp_path):
    ini = Path(__file__).resolve().parents[1] / "pyproject.toml"
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    argv = ["-c", str(ini), "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_property.py"]
    done = subprocess.run(
        [sys.executable, "-m", "pytest", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "INTERNALERROR" not in out
    failed = [line for line in out.splitlines() if line.startswith("FAILED ")]
    assert failed == ["FAILED test_property.py::test_small - assert 5 < 5"], out
