"""The suite's own pytest settings: with warnings turned into errors, a
falsified hypothesis property still ends as a plain test failure that
shows its falsifying example, not as an internal error."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_below_ten(x):
    assert x < 10
"""


def test_falsified_property_reports_its_example(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-q", "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "Falsifying example" in proc.stdout
