"""The suite's own tooling: a falsified hypothesis property fails as a
test and reports its falsifying example, and only the artifact codec
encodes artifacts."""

import ast
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


SRC = Path(__file__).resolve().parents[1] / "src" / "risknet"
# (module, attribute) of the calls that encode an artifact's bytes
ARTIFACT_CALLS = {("json", "dump"), ("csv", "writer"), (None, "tobytes")}


def test_only_the_artifact_codec_encodes_artifacts():
    """No module of the package but artifacts.py calls json.dump,
    csv.writer or .tobytes(): every artifact format has one writer."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "artifacts.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            owner = node.func.value
            module = owner.id if isinstance(owner, ast.Name) else None
            if ({(module, node.func.attr), (None, node.func.attr)}
                    & ARTIFACT_CALLS):
                found.append(f"{path.relative_to(SRC)}:{node.lineno} "
                             f"{node.func.attr}")
    assert not found
