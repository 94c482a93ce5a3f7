"""The suite's own pytest settings: a falsified hypothesis property fails
as a test and reports its falsifying example."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FALSIFIED = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_five(n):
    assert n < 5
"""


def test_falsified_property_reports_its_example(tmp_path):
    """Run under pyproject.toml's warning filters, a failing @given test
    exits 1 with its falsifying example, not INTERNALERROR (exit 3)."""
    (tmp_path / "test_property.py").write_text(FALSIFIED)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "Falsifying example: test_below_five(" in proc.stdout
