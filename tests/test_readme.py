"""The README's Python API example, executed as written."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    metrics = ast.literal_eval(capsys.readouterr().out)
    assert set(metrics) == {"mAP", "rank1", "rank5", "rank10"}
