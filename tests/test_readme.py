"""The README's examples run against the library as it is."""

import os
import pathlib
import re
import subprocess
import sys

import atomsched as a

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


def test_instance_example_parses():
    blocks = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    inst = a.parse_instance(blocks[0])
    phev, kitchen = inst.appliances
    assert phev == a.catalog_appliance("phev")
    assert kitchen.name == "dw_kitchen"
    assert kitchen.energy_pattern == (0.72, 0.72)
    assert inst.cost_coefficients == (0.2,) * 8 + (0.3,) * 16
