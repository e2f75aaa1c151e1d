"""Golden oracle runs: exact optima, schedules and evaluation counts pinned.

The expected values in ``data/oracle_golden.json`` were recorded from
``brute_force`` at default workers while two enumeration kernels were still
kept bit-identical by hand. The large cases scan many blocks, far past what
the plain-Python reference kernel in ``test_oracle.py`` can reach. Values
are compared through ``float.hex``, so any change in rounding fails. Re-record
them only for a change that is meant to move the oracle's results:

    PYTHONPATH=src python tests/test_oracle_golden.py
"""

import json
import pathlib

import pytest

import atomsched as a
from atomsched import _kernels
from test_oracle import kernel_instances, n6_mix

GOLDEN = pathlib.Path(__file__).with_name("data") / "oracle_golden.json"
OBJECTIVES = ["cost", "par"]


def instances():
    """Every kernel cross-check instance, worst5 (23^5 schedules, every one
    a near-tie), two N=6 generated instances and the benchmark's seed-1
    N=6 mix (9.6M schedules)."""
    cases = {f"kernel-{k}": inst for k, inst in enumerate(kernel_instances())}
    dish_washer = a.catalog_appliance("dish_washer")
    cases["worst5"] = a.ProblemInstance(24, [dish_washer] * 5, a.default_cost_coefficients())
    for seed in (2, 3):
        cases[f"gen-6-{seed}"] = a.generate_instance(6, seed)
    cases["n6-mix"] = n6_mix()
    return cases


def run(instance, objective, workers=None):
    result = a.brute_force(instance, a.ObjectiveKind(objective), workers=workers)
    return {
        "objective_value": float.hex(result.objective_value),
        "schedule": list(result.schedule),
        "evaluations": result.evaluations,
    }


def _expected():
    return {(c["case"], c["objective"]): c for c in json.loads(GOLDEN.read_text())}


#: every case at default workers (ids ``case-objective``) and on one scan
#: range (``case-objective-workers1``)
GOLDEN_RUNS = [
    pytest.param(case, objective, workers, id=f"{case}-{objective}{suffix}")
    for case in instances()
    for objective in OBJECTIVES
    for workers, suffix in ((None, ""), (1, "-workers1"))
]


@pytest.mark.parametrize("case, objective, workers", GOLDEN_RUNS)
def test_oracle_matches_golden_run(case, objective, workers):
    expected = _expected()[(case, objective)]
    got = run(instances()[case], objective, workers)
    for key in ("objective_value", "schedule", "evaluations"):
        assert got[key] == expected[key], key


def counted_rows(monkeypatch, scorer):
    """A list that collects the number of prefix rows each call of the
    block scorer ``scorer`` of ``_kernels`` is given."""
    score, scored = getattr(_kernels, scorer), []

    def counting(prefix, *args):
        scored.append(len(prefix))
        return score(prefix, *args)

    monkeypatch.setattr(_kernels, scorer, counting)
    return scored


def scored_rows(monkeypatch, scorer, case, objective, workers):
    """Run ``case`` through ``brute_force`` counting the prefix rows the
    block scorer ``scorer`` of ``_kernels`` is given, check the golden
    result, and return the rows scored and the prefix rows covered."""
    scored = counted_rows(monkeypatch, scorer)
    instance = instances()[case]
    got, expected = run(instance, objective, workers), _expected()[(case, objective)]
    for key in ("objective_value", "schedule", "evaluations"):
        assert got[key] == expected[key], key
    _, size = _kernels._split_point(a.PlacementTable(instance).radices)
    return sum(scored), got["evaluations"] // size


def test_joint_bound_scores_few_par_rows(monkeypatch):
    """One PAR range bounds each row by the heaviest suffix users placed
    jointly and scores its best-bound row first: it scores 1 of the N=6
    mix's 529 prefix rows (28 under the prefix-peak bound alone) and under
    1% of the 10,164 of ``generate_instance(7, 1)`` (1,938 before)."""
    assert scored_rows(monkeypatch, "_block_peaks", "n6-mix", "par", 1) == (1, 529)
    scored = counted_rows(monkeypatch, "_block_peaks")
    instance = a.generate_instance(7, 1)
    result = a.brute_force(instance, a.ObjectiveKind.PAR, limit=10**9, workers=1)
    assert float.hex(result.objective_value) == "0x1.5cd9271abf2dep+1"
    assert result.schedule == (4, 4, 4, 22, 4, 6, 1)
    _, size = _kernels._split_point(a.PlacementTable(instance).radices)
    assert result.evaluations // size == 10_164
    assert 0 < 100 * sum(scored) < 10_164


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", ["worst5", "gen-6-3"])
def test_pruned_par_scan_matches_golden_run(case, workers, monkeypatch):
    """The PAR scan scores under a tenth of the prefix rows it covers and
    still gives the golden result, so a scan that stops pruning fails."""
    scored, covered = scored_rows(monkeypatch, "_block_peaks", case, "par", workers)
    assert 0 < 10 * scored < covered


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", ["worst5", "gen-6-3"])
def test_pruned_cost_scan_matches_golden_run(case, workers, monkeypatch):
    """The cost scan skips prefix rows (on worst5, over 40% of those it
    covers; 252 of 529 are scored at one worker) and still gives the golden
    result, so a scan that stops skipping rows fails."""
    scored, covered = scored_rows(monkeypatch, "_block_costs", case, "cost", workers)
    assert 0 < scored < covered
    if case == "worst5":
        assert 10 * scored < 6 * covered


@pytest.mark.parametrize(
    "case, objective, scorer, rows",
    [
        ("worst5", "cost", "_block_costs", 252),
        ("n6-mix", "cost", "_block_costs", 474),
        ("worst5", "par", "_block_peaks", 1),
        ("n6-mix", "par", "_block_peaks", 1),
    ],
)
def test_one_worker_scores_the_rows_readme_states(case, objective, scorer, rows, monkeypatch):
    """At one worker the scan's rows scored depend on no timing: exactly
    the counts README states, of 529 prefix rows covered. The first block,
    scored while the incumbent is empty, holds one row."""
    per_block = counted_rows(monkeypatch, scorer)
    assert scored_rows(monkeypatch, scorer, case, objective, 1) == (rows, 529)
    assert per_block[0] == 1


if __name__ == "__main__":
    records = [
        {"case": case, "objective": objective, **run(inst, objective)}
        for case, inst in instances().items()
        for objective in OBJECTIVES
    ]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
