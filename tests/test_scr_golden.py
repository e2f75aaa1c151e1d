"""Golden SCR runs: schedules, round counts, drop order and bounds pinned.

The expected values in ``data/scr_golden.json`` were recorded from the
straightforward per-candidate polish loop, before the placement table and the
polish memo went in; only the drop histories were re-recorded when values
within INTEGRAL_TOL started to tie in drop selection. Re-record them only for
a change that is meant to move SCR's results:

    PYTHONPATH=src python tests/test_scr_golden.py
"""

import functools
import json
import pathlib

import pytest

import atomsched as a

GOLDEN = pathlib.Path(__file__).with_name("data") / "scr_golden.json"
CASES = [(10, 1, "cost"), (10, 1, "par"), (5, 12, "cost"), (5, 12, "par")]


def run(n, seed, objective):
    result = a.successive_convex_relaxation(
        a.generate_instance(n, seed), a.ObjectiveKind(objective)
    )
    return {
        "n": n,
        "seed": seed,
        "objective": objective,
        "schedule": list(result.schedule),
        "iterations": result.iterations,
        "drop_history": [list(pair) for pair in result.drop_history],
        "lower_bound": result.lower_bound,
        "upper_bound": result.upper_bound,
    }


def _expected():
    cases = json.loads(GOLDEN.read_text())
    return {(c["n"], c["seed"], c["objective"]): c for c in cases}


@functools.cache
def _run(n, seed, objective):
    return run(n, seed, objective)


@pytest.mark.parametrize("n, seed, objective", CASES)
def test_scr_matches_golden_run(n, seed, objective):
    """The trajectory, which SCR's tie rule keeps the same across BLAS
    kernels; CI also runs this test under OPENBLAS_CORETYPE=Sandybridge."""
    expected = _expected()[(n, seed, objective)]
    got = _run(n, seed, objective)
    for key in ("schedule", "iterations", "drop_history"):
        assert got[key] == expected[key], key


@pytest.mark.parametrize("n, seed, objective", CASES)
def test_scr_matches_golden_bounds(n, seed, objective):
    expected = _expected()[(n, seed, objective)]
    got = _run(n, seed, objective)
    for key in ("lower_bound", "upper_bound"):
        assert got[key] == pytest.approx(expected[key], rel=1e-12, abs=0.0), key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run(*case) for case in CASES], indent=1) + "\n")
