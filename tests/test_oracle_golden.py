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


#: each objective's block scorers in ``_kernels``: a cost block scores the
#: whole suffix, or the run of it sorted by cost that may make the cut
SCORERS = {"cost": ("_block_costs", "_run_costs"), "par": ("_block_peaks",)}


def counted_blocks(monkeypatch, objective):
    """A list that collects (scorer, prefix rows, pairs) for each block
    that one of ``objective``'s block scorers scores."""
    blocks = []
    for name in SCORERS[objective]:

        def counting(prefix, *args, name=name, score=getattr(_kernels, name)):
            vals = score(prefix, *args)
            blocks.append((name, len(prefix), vals.size))
            return vals

        monkeypatch.setattr(_kernels, name, counting)
    return blocks


def scored_blocks(monkeypatch, case, objective, workers):
    """Run ``case`` through ``brute_force`` counting its scored blocks,
    check the golden result, and return (scorer, prefix rows, pairs) for
    each block and the prefix rows covered."""
    blocks = counted_blocks(monkeypatch, objective)
    instance = instances()[case]
    got, expected = run(instance, objective, workers), _expected()[(case, objective)]
    for key in ("objective_value", "schedule", "evaluations"):
        assert got[key] == expected[key], key
    _, size = _kernels._split_point(a.PlacementTable(instance).radices)
    return blocks, got["evaluations"] // size


def totals(blocks):
    """The prefix rows and the pairs that ``blocks`` scored."""
    return sum(rows for _, rows, _ in blocks), sum(pairs for _, _, pairs in blocks)


def test_joint_bound_scores_few_par_rows(monkeypatch):
    """One PAR range bounds each row by the heaviest suffix users placed
    jointly and scores its best-bound row first: it scores 1 of the N=6
    mix's 529 prefix rows (28 under the prefix-peak bound alone) and under
    1% of the 10,164 of ``generate_instance(7, 1)`` (1,938 before)."""
    blocks, covered = scored_blocks(monkeypatch, "n6-mix", "par", 1)
    assert (totals(blocks)[0], covered) == (1, 529)
    blocks = counted_blocks(monkeypatch, "par")
    instance = a.generate_instance(7, 1)
    result = a.brute_force(instance, a.ObjectiveKind.PAR, limit=10**9, workers=1)
    assert float.hex(result.objective_value) == "0x1.5cd9271abf2dep+1"
    assert result.schedule == (4, 4, 4, 22, 4, 6, 1)
    _, size = _kernels._split_point(a.PlacementTable(instance).radices)
    assert result.evaluations // size == 10_164
    assert 0 < 100 * totals(blocks)[0] < 10_164


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", ["worst5", "gen-6-3"])
def test_pruned_par_scan_matches_golden_run(case, workers, monkeypatch):
    """The PAR scan scores under a tenth of the prefix rows it covers and
    still gives the golden result, so a scan that stops pruning fails."""
    blocks, covered = scored_blocks(monkeypatch, case, "par", workers)
    assert 0 < 10 * totals(blocks)[0] < covered


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", ["worst5", "gen-6-3"])
def test_pruned_cost_scan_matches_golden_run(case, workers, monkeypatch):
    """The cost scan skips prefix rows (on worst5, over 40% of those it
    covers; 252 of 529 are scored at one worker) and scores a kept row only
    against the suffix schedules whose own cost fits under the cut, and
    still gives the golden result, so a scan that stops skipping rows or
    trimming their suffix fails. Scoring every kept row against the whole
    suffix, the scan scored 48% of worst5's schedules and 41% of
    gen-6-3's; it scores under 3% and 18%: on gen-6-3 many suffix
    schedules tie on their own cost, so most blocks keep the whole
    suffix."""
    blocks, covered = scored_blocks(monkeypatch, case, "cost", workers)
    rows, pairs = totals(blocks)
    assert 0 < rows < covered
    schedules = _expected()[(case, "cost")]["evaluations"]
    if case == "worst5":
        assert 10 * rows < 6 * covered
        assert 10 * pairs < schedules
    else:
        assert 4 * pairs < schedules


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
    the counts README states, of 529 prefix rows covered, summed over the
    objective's block scorers. The first block, scored by ``scorer`` while
    the incumbent is empty, holds one row."""
    blocks, covered = scored_blocks(monkeypatch, case, objective, 1)
    assert (totals(blocks)[0], covered) == (rows, 529)
    assert blocks[0][:2] == (scorer, 1)


@pytest.mark.parametrize("case, pairs", [("worst5", 152_717), ("n6-mix", 412_116)])
def test_one_worker_cost_scan_scores_the_pairs_readme_states(case, pairs, monkeypatch):
    """At one worker the cost scan scores exactly the (prefix row, suffix
    schedule) pairs README states: the first block scores its row against
    the whole suffix and most others score theirs against the runs that may
    make the cut (3,066,084 and 8,634,384 pairs when every kept row met the
    whole suffix)."""
    blocks, _ = scored_blocks(monkeypatch, case, "cost", 1)
    assert totals(blocks)[1] == pairs
    assert {name for name, _, _ in blocks} == set(SCORERS["cost"])


@pytest.mark.parametrize("workers", [1, 2])
def test_weak_pruning_cost_scan_matches_golden_run(workers, monkeypatch):
    """``generate_instance(8, 4)`` (82.6M schedules): the cut trims few of
    its rows' suffixes to a quarter, so almost every block scores the whole
    suffix in index order, and the result is still the golden one."""
    blocks = counted_blocks(monkeypatch, "cost")
    result = a.brute_force(
        a.generate_instance(8, 4), a.ObjectiveKind.COST, limit=10**9, workers=workers
    )
    assert float.hex(result.objective_value) == "0x1.1afe791754409p+6"
    assert result.schedule == (8, 22, 0, 12, 1, 3, 3, 6)
    full = [rows for name, rows, _ in blocks if name == "_block_costs"]
    assert 10 * len(full) > 9 * len(blocks)


if __name__ == "__main__":
    records = [
        {"case": case, "objective": objective, **run(inst, objective)}
        for case, inst in instances().items()
        for objective in OBJECTIVES
    ]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
