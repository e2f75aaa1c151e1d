import json
import os
import subprocess
import sys

import numpy as np
import pytest

import atomsched as a
from atomsched import scr
from atomsched.cli import clock_range, main


def write_instance(tmp_path, appliances, name="inst.json"):
    inst = a.ProblemInstance(24, appliances, a.default_cost_coefficients())
    path = str(tmp_path / name)
    a.write_instance_file(inst, path)
    return path


def test_clock_rendering():
    assert clock_range(22, 3, 24) == "22:00-01:00"
    assert clock_range(0, 2, 24) == "00:00-02:00"
    assert clock_range(9, 3, 48) == "04:30-06:00"


def test_solve_par_single_dish_washer(tmp_path, capsys):
    path = write_instance(tmp_path, [a.catalog_appliance("dish_washer")])
    assert main(["solve", path, "--objective", "par"]) == 0
    out = capsys.readouterr().out
    fields = dict(
        line.split(": ", 1) for line in out.strip().split("\n") if ": " in line
    )
    assert float(fields["upper_bound"]) == pytest.approx(12.0, abs=1e-6)
    # true relaxation: the spread profile is flat, so the bound ratio is 1
    assert float(fields["lower_bound"]) == pytest.approx(1.0, abs=1e-4)
    assert int(fields["iterations"]) >= 1


def test_solve_json_and_csv_formats(tmp_path, capsys):
    path = write_instance(tmp_path, [a.catalog_appliance("phev")])
    assert main(["solve", path, "--objective", "cost", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ub"] == pytest.approx(6.534, abs=1e-6)
    assert payload["schedule"][0]["start"] in (0, 1, 2, 3)
    assert "clock" in payload["schedule"][0]

    assert main(["solve", path, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "objective,lb,ub,gap,iterations,wall_ms,schedule"
    parts = lines[1].split(",")
    assert float(parts[2]) == pytest.approx(6.534, abs=1e-6)


def test_enumerate_reports_value_and_count(tmp_path, capsys):
    path = write_instance(tmp_path, [a.catalog_appliance("dish_washer")])
    assert main(["enumerate", path, "--objective", "cost"]) == 0
    out = capsys.readouterr().out
    assert "optimum: 0.20736" in out
    assert "evaluations: 23" in out


def test_enumerate_too_large_exit_code(tmp_path, capsys):
    appliances = [a.Appliance("u%d" % i, 0, 23, 1, (1.0,)) for i in range(100)]
    path = write_instance(tmp_path, appliances)
    assert main(["enumerate", path]) == 3
    err = capsys.readouterr().err
    assert str(24**100) in err


def test_enumerate_rejects_bad_worker_count(tmp_path, capsys):
    path = write_instance(tmp_path, [a.catalog_appliance("dish_washer")])
    assert main(["enumerate", path, "--workers", "-3"]) == 1
    assert "workers must be an integer >= 1, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_enumerate_rejects_bad_limit(limit, tmp_path, capsys):
    path = write_instance(tmp_path, [a.catalog_appliance("dish_washer")])
    assert main(["enumerate", path, "--limit", limit]) == 1
    assert f"limit must be an integer >= 1, got {limit}" in capsys.readouterr().err


def test_gen_has_no_horizon_option(tmp_path, capsys):
    out = str(tmp_path / "gen.json")
    with pytest.raises(SystemExit) as info:
        main(["gen", "--n", "3", "--seed", "1", "--out", out, "--horizon", "96"])
    assert info.value.code == 1
    assert "--horizon" in capsys.readouterr().err
    assert not (tmp_path / "gen.json").exists()


def test_gen_then_solve_round_trip(tmp_path, capsys):
    out = str(tmp_path / "gen.json")
    assert main(["gen", "--n", "3", "--seed", "42", "--out", out]) == 0
    assert a.read_instance_file(out) == a.generate_instance(3, 42)
    assert main(["solve", out, "--objective", "cost"]) == 0
    assert "upper_bound:" in capsys.readouterr().out


def test_bench_csv_deterministic_with_zeroed_timing(tmp_path, capsys):
    args = [
        "bench",
        "--n-range",
        "2..3",
        "--n-d-list",
        "1,5",
        "--seeds",
        "1..3",
        "--objective",
        "cost",
        "--zero-wall-ms",
    ]
    first = str(tmp_path / "a.csv")
    second = str(tmp_path / "b.csv")
    assert main(args + ["--out", first]) == 0
    assert main(args + ["--out", second]) == 0
    capsys.readouterr()
    blob_a = open(first, "rb").read()
    blob_b = open(second, "rb").read()
    assert blob_a == blob_b
    lines = blob_a.decode().strip().split("\n")
    assert len(lines) == 1 + 2 * 2 * 3
    assert lines[0] == "n,n_d,seed,objective,lb,ub,gap,iterations,wall_ms"
    for line in lines[1:]:
        parts = line.split(",")
        assert float(parts[6]) >= -1e-6  # gap
        assert parts[8] == "0"


def test_bench_json_to_stdout(capsys):
    assert (
        main(
            [
                "bench",
                "--n-range",
                "2",
                "--n-d-list",
                "1",
                "--seeds",
                "1,2",
                "--format",
                "json",
                "--zero-wall-ms",
            ]
        )
        == 0
    )
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    assert {r["seed"] for r in rows} == {1, 2}


@pytest.mark.parametrize("empty", [",", "5..2"])
@pytest.mark.parametrize("flag", ["--n-range", "--n-d-list", "--seeds"])
def test_bench_rejects_an_empty_list(flag, empty, capsys):
    """An empty sweep is an error, not a header-only CSV."""
    args = {"--n-range": "2", "--n-d-list": "1", "--seeds": "1", flag: empty}
    assert main(["bench", *(part for item in args.items() for part in item)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"empty list {empty!r}" in captured.err


def test_invalid_instance_exit_code(tmp_path, capsys):
    path = str(tmp_path / "broken.json")
    with open(path, "w") as handle:
        handle.write('{"version": 1, "horizon": 24, "appliances": []}')
    assert main(["solve", path]) == 1
    assert "atomsched:" in capsys.readouterr().err


def test_malformed_tier_key_exit_code(tmp_path, capsys):
    path = str(tmp_path / "tiers.json")
    with open(path, "w") as handle:
        handle.write('{"version": 1, "horizon": 24, "cost_coefficients": {"night": 0.2}, '
                     '"appliances": [{"catalog": "phev"}]}')
    assert main(["solve", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cost_coefficients: tier key 'night' is not of the form 'lo-hi'" in captured.err


def test_solver_failure_exit_code(tmp_path, capsys, monkeypatch):
    """A round whose flows are never one-hot runs SCR out of droppable
    columns; the SolverError it raises maps to exit code 2."""
    path = write_instance(tmp_path, [a.catalog_appliance("phev")])
    monkeypatch.setattr(scr, "one_hot_rows", lambda flows: np.zeros(len(flows), dtype=bool))
    assert main(["solve", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "atomsched: no droppable element" in captured.err


def test_non_string_appliance_name_exit_code(tmp_path, capsys):
    path = str(tmp_path / "listname.json")
    with open(path, "w") as handle:
        handle.write('{"version": 1, "horizon": 24, '
                     '"appliances": [{"catalog": "phev", "name": ["x"]}]}')
    assert main(["solve", path]) == 1
    assert "expected a string" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["solve", "/nonexistent/inst.json"]) == 1
    capsys.readouterr()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve"])  # missing instance argument
    assert info.value.code == 1
    capsys.readouterr()


def test_runtime_needs_numpy_only(tmp_path):
    """gen, solve and enumerate run with scipy and hypothesis unimportable,
    so numpy is the only runtime dependency."""
    path = str(tmp_path / "inst.json")
    script = f"""
import sys
for name in ("scipy", "hypothesis"):
    sys.modules[name] = None
from atomsched.cli import main
assert main(["gen", "--n", "3", "--seed", "1", "--out", {path!r}]) == 0
assert main(["solve", {path!r}]) == 0
assert main(["enumerate", {path!r}]) == 0
"""
    src = os.path.dirname(os.path.dirname(a.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
