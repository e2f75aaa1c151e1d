"""The README's examples run against the library as it is, and the package
exports the public names pinned here and no others."""

import os
import pathlib
import re
import subprocess
import sys
import types

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


#: the package's public names: a new re-export must be added here, and one
#: with no caller outside the tests should not be added at all
PUBLIC_NAMES = {
    # model and catalog
    "Appliance", "ProblemInstance", "enumeration_size", "instance_total_energy",
    "start_sets", "DEFAULT_CATALOG", "catalog_appliance", "generate_instance",
    # instance and result files
    "parse_instance", "read_instance_file", "serialize_instance", "write_instance_file",
    "results_to_csv", "results_to_json", "write_results",
    # flow variables and objectives
    "PlacementTable", "ObjectiveKind", "cost_gradient", "cost_hessian",
    "default_cost_coefficients",
    # relaxation, SCR and the oracle
    "RelaxedSolution", "par_ratio_from_peak", "solve_relaxed", "IterationRecord",
    "SCRConfig", "SCRResult", "SweepRow", "polish_schedule", "scr_sweep",
    "successive_convex_relaxation", "DEFAULT_LIMIT", "OracleResult", "brute_force",
    "resolve_workers",
    # errors
    "AtomschedError", "InfeasibleFlowError", "InvalidInstanceError", "ParseError",
    "SolverError", "TooLargeError",
}


def test_public_surface_is_pinned():
    exported = {
        name for name in a.__all__ if not isinstance(getattr(a, name), types.ModuleType)
    }
    assert len(PUBLIC_NAMES) == 40
    assert exported == PUBLIC_NAMES
