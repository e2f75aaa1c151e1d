"""The README's examples run against the library as it is."""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for block in blocks:
        result = subprocess.run(
            [sys.executable, "-c", block], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
