"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines stream; without ``-s`` they appear in the captured output of failing
tests. Results of expensive runs are cached and shared across criteria, so
the whole suite stays in the minutes range on commodity hardware.
"""

import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

import atomsched as a
from atomsched.cli import main as cli_main
from atomsched.flows import FEASIBILITY_TOL, check_flows
from atomsched.objectives import score_loads

from conftest import random_relaxed_flows

COST = a.ObjectiveKind.COST
PAR = a.ObjectiveKind.PAR

SEEDS = tuple(range(1, 21))
SANDWICH_SIZES = (2, 3, 4, 5)
PAR_EXACT_SIZES = (2, 3, 4, 5, 6)
DROP_BUDGETS = (1, 2, 5, 10)
ORACLE_LIMIT = 200_000_000

_instances = {}
_oracle = {}
_scr = {}


def instance(n, seed):
    key = (n, seed)
    if key not in _instances:
        _instances[key] = a.generate_instance(n, seed)
    return _instances[key]


def oracle(n, seed, objective):
    key = (n, seed, objective)
    if key not in _oracle:
        inst = instance(n, seed)
        result = a.brute_force(inst, objective, limit=ORACLE_LIMIT)
        # criterion 9 rider: the evaluation counter is exact on every run
        assert result.evaluations == a.enumeration_size(inst)
        _oracle[key] = result
    return _oracle[key]


def scr(n, seed, objective, n_d):
    key = (n, seed, objective, n_d)
    if key not in _scr:
        _scr[key] = a.successive_convex_relaxation(
            instance(n, seed),
            objective,
            a.SCRConfig(max_drops_per_iteration=n_d),
        )
    return _scr[key]


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE {number:2d}] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE {number:2d}] {name}: PASS")


def test_criterion_01_sandwich():
    with criterion(1, "sandwich LB <= GO <= UB on seeded instances"):
        for objective in (COST, PAR):
            for n in SANDWICH_SIZES:
                for seed in SEEDS:
                    go = oracle(n, seed, objective).objective_value
                    result = scr(n, seed, objective, 1)
                    assert result.lower_bound - 1e-6 <= go, (objective, n, seed)
                    assert go <= result.upper_bound + 1e-6, (objective, n, seed)


def test_criterion_02_par_exactness():
    with criterion(2, "PAR upper bound equals GO for N <= 6, every budget"):
        for n in PAR_EXACT_SIZES:
            for seed in SEEDS:
                go = oracle(n, seed, PAR).objective_value
                for n_d in DROP_BUDGETS:
                    ub = scr(n, seed, PAR, n_d).upper_bound
                    assert abs(ub - go) <= 1e-6, (n, seed, n_d, ub, go)


def test_criterion_03_cost_exactness():
    with criterion(3, "cost exactness at N=2; ratios and medians for N=3..5"):
        for seed in SEEDS:
            go = oracle(2, seed, COST).objective_value
            for n_d in DROP_BUDGETS:
                ub = scr(2, seed, COST, n_d).upper_bound
                assert abs(ub - go) <= 1e-6, (seed, n_d, ub, go)
        for n in (3, 4, 5):
            for n_d in DROP_BUDGETS:
                ratios = []
                for seed in SEEDS:
                    go = oracle(n, seed, COST).objective_value
                    ratios.append(scr(n, seed, COST, n_d).upper_bound / go)
                assert max(ratios) <= 1.05, (n, n_d, max(ratios))
                assert abs(statistics.median(ratios) - 1.0) <= 1e-9, (n, n_d)


def test_criterion_04_gradient_check():
    with criterion(4, "analytic gradient matches central differences"):
        step = 1e-5
        for n, seed in ((2, 1), (3, 2), (4, 3)):
            inst = instance(n, seed)
            table = a.PlacementTable(inst)
            rng = np.random.default_rng(1000 + seed)
            mask = np.zeros((inst.n_users, inst.horizon), dtype=bool)
            for u, starts in enumerate(a.start_sets(inst)):
                mask[u, list(starts)] = True

            def cost_at(flows):
                loads = table.flow_loads(check_flows(flows, table.feasible, np.inf))
                return score_loads(COST, loads, table.coefficients, None)

            for _ in range(50):
                flows = random_relaxed_flows(inst, rng)
                grad = a.cost_gradient(inst, flows)
                approx = np.zeros_like(grad)
                for u, s in zip(*np.nonzero(mask)):
                    up = flows.copy()
                    down = flows.copy()
                    up[u, s] += step
                    down[u, s] -= step
                    approx[u, s] = (cost_at(up) - cost_at(down)) / (2 * step)
                err = np.abs((grad - approx)[mask]).max()
                assert err <= 1e-5 * (1.0 + np.abs(approx).max()), (n, seed, err)


def test_criterion_05_hessian_check():
    with criterion(5, "Hessian symmetric, PSD, constant, matches FD Jacobian"):
        inst = instance(3, 4)
        hess = a.cost_hessian(inst)
        assert np.abs(hess - hess.T).max() <= 1e-12
        assert np.linalg.eigvalsh(hess).min() >= -1e-9

        rng = np.random.default_rng(55)
        step = 1e-5
        mask = np.zeros((inst.n_users, inst.horizon), dtype=bool)
        for u, starts in enumerate(a.start_sets(inst)):
            mask[u, list(starts)] = True
        cols = np.flatnonzero(mask.ravel())
        scale = 1.0 + np.abs(hess).max()
        for _ in range(2):  # two points: equality at both shows constancy in f
            flows = random_relaxed_flows(inst, rng)
            for j in cols:
                u, s = divmod(int(j), inst.horizon)
                up = flows.copy()
                down = flows.copy()
                up[u, s] += step
                down[u, s] -= step
                column = (
                    a.cost_gradient(inst, up, tol=np.inf)
                    - a.cost_gradient(inst, down, tol=np.inf)
                ).ravel() / (2 * step)
                assert np.abs(column - hess[:, j]).max() <= 1e-4 * scale


def test_criterion_06_conservation():
    with criterion(6, "load profiles conserve total energy"):
        for n, seed in ((2, 1), (5, 1), (10, 1)):
            inst = instance(n, seed)
            total = a.instance_total_energy(inst)
            table = a.PlacementTable(inst)
            rng = np.random.default_rng(60 + n)
            for _ in range(1000):
                flows = random_relaxed_flows(inst, rng)
                loads = table.flow_loads(check_flows(flows, table.feasible, FEASIBILITY_TOL))
                assert abs(loads.sum() - total) <= 1e-9


def test_criterion_07_monotone_traces():
    with criterion(7, "relaxed objectives non-decreasing; iteration bound"):
        checked = 0
        for (n, seed, objective, n_d), result in list(_scr.items()):
            bound = sum(len(s) - 1 for s in a.start_sets(instance(n, seed))) + 1
            assert result.iterations <= bound, (n, seed, objective, n_d)
            values = [r.relaxed_objective for r in result.trace]
            for earlier, later in zip(values, values[1:]):
                assert later >= earlier - 1e-6, (n, seed, objective, n_d)
            checked += 1
        assert checked >= 100  # criteria 1-3 populate the cache first


def test_criterion_08_drop_budget_effect():
    with criterion(8, "bigger drop budget cuts iterations, not quality"):
        for n in (10, 20):
            iterations = {1: [], 10: []}
            bounds = {1: [], 10: []}
            for seed in SEEDS:
                for n_d in (1, 10):
                    result = scr(n, seed, COST, n_d)
                    iterations[n_d].append(result.iterations)
                    bounds[n_d].append(result.upper_bound)
            assert statistics.median(iterations[10]) <= statistics.median(
                iterations[1]
            ), n
            # quality unaffected: the larger budget is no worse in the median
            diffs = [b10 - b1 for b1, b10 in zip(bounds[1], bounds[10])]
            assert statistics.median(diffs) <= 1e-6, (n, statistics.median(diffs))


def test_criterion_09_enumeration_accounting():
    with criterion(9, "exact enumeration sizes and evaluation counters"):
        worst = a.ProblemInstance(
            24,
            [a.Appliance("u%d" % i, 0, 23, 1, (1.0,)) for i in range(100)],
            a.default_cost_coefficients(),
        )
        assert a.enumeration_size(worst) == 24**100
        for n, seed in ((2, 1), (3, 7), (4, 20)):
            result = oracle(n, seed, COST)
            assert result.evaluations == a.enumeration_size(instance(n, seed))


def test_criterion_10_desk_scale_performance():
    with criterion(10, "N=10 relaxation run under 60 s; N=5 oracle under 300 s"):
        inst = instance(10, 1)
        started = time.perf_counter()
        a.successive_convex_relaxation(inst, COST)
        scr_seconds = time.perf_counter() - started
        assert scr_seconds < 60.0, scr_seconds

        worst5 = a.ProblemInstance(
            24,
            [a.catalog_appliance("dish_washer", f"dw{i}") for i in range(5)],
            a.default_cost_coefficients(),
        )
        assert a.enumeration_size(worst5) == 23**5
        started = time.perf_counter()
        result = a.brute_force(worst5, COST)
        oracle_seconds = time.perf_counter() - started
        assert oracle_seconds < 300.0, oracle_seconds
        assert result.evaluations == 23**5


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "byte-identical CSV and worker-independent oracle"):
        args = [
            "bench",
            "--n-range",
            "2..3",
            "--n-d-list",
            "1,5",
            "--seeds",
            "1..5",
            "--objective",
            "par",
            "--zero-wall-ms",
        ]
        first = str(tmp_path / "first.csv")
        second = str(tmp_path / "second.csv")
        assert cli_main(args + ["--out", first]) == 0
        assert cli_main(args + ["--out", second]) == 0
        assert open(first, "rb").read() == open(second, "rb").read()

        inst = instance(5, 2)
        for objective in (COST, PAR):
            runs = [
                a.brute_force(inst, objective, workers=w) for w in (1, 2, 3)
            ]
            assert runs[0] == runs[1] == runs[2]
