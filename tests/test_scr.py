import json
import pathlib

import numpy as np
import pytest

import atomsched as a
from atomsched import scr

COST = a.ObjectiveKind.COST
PAR = a.ObjectiveKind.PAR
STALLING_DROPS = pathlib.Path(__file__).with_name("data") / "stalling_par_drops.json"


def max_rounds_bound(instance):
    return sum(len(s) - 1 for s in a.start_sets(instance)) + 1


@pytest.mark.parametrize("key", sorted(a.DEFAULT_CATALOG))
@pytest.mark.parametrize("objective", [COST, PAR])
def test_single_appliance_reaches_optimum(key, objective, two_tier_coefficients):
    inst = a.ProblemInstance(24, [a.catalog_appliance(key)], two_tier_coefficients)
    result = a.successive_convex_relaxation(inst, objective)
    optimum = a.brute_force(inst, objective)
    assert result.upper_bound == pytest.approx(optimum.objective_value, abs=1e-9)
    assert result.lower_bound <= optimum.objective_value + 1e-6
    assert result.schedule[0] in a.feasible_starts(inst.appliances[0], 24)


@pytest.mark.parametrize("n_d", [1, 2, 5, 10])
def test_two_user_cost_exactness(n_d):
    for seed in (3, 8, 11):
        inst = a.generate_instance(2, seed)
        result = a.successive_convex_relaxation(
            inst, COST, a.SCRConfig(max_drops_per_iteration=n_d)
        )
        optimum = a.brute_force(inst, COST).objective_value
        assert result.upper_bound == pytest.approx(optimum, abs=1e-6)


@pytest.mark.parametrize("n_d", [1, 10])
def test_small_par_exactness(n_d):
    for n, seed in ((3, 1), (5, 2), (6, 7)):
        inst = a.generate_instance(n, seed)
        result = a.successive_convex_relaxation(
            inst, PAR, a.SCRConfig(max_drops_per_iteration=n_d)
        )
        optimum = a.brute_force(inst, PAR, limit=200_000_000).objective_value
        assert result.upper_bound == pytest.approx(optimum, abs=1e-6)


def test_result_invariants_and_trace():
    inst = a.generate_instance(4, 5)
    for objective in (COST, PAR):
        result = a.successive_convex_relaxation(inst, objective)
        assert result.lower_bound <= result.upper_bound + 1e-6
        assert result.iterations <= max_rounds_bound(inst)
        assert result.iterations == len(result.trace)
        objectives = [record.relaxed_objective for record in result.trace]
        for earlier, later in zip(objectives, objectives[1:]):
            assert later >= earlier - 1e-6
        # every user keeps at least one undropped start
        sets_ = a.start_sets(inst)
        for n, starts in enumerate(sets_):
            dropped_n = sum(1 for (m, _) in result.drop_history if m == n)
            assert dropped_n < len(starts)
        # drop history matches the per-iteration records
        flattened = [d for record in result.trace for d in record.dropped]
        assert tuple(flattened) == result.drop_history
        a.validate_schedule(inst, result.schedule)


def test_determinism_repeated_runs():
    inst = a.generate_instance(5, 12)
    first = a.successive_convex_relaxation(inst, COST)
    second = a.successive_convex_relaxation(inst, COST)
    assert first.schedule == second.schedule
    assert first.drop_history == second.drop_history
    assert first.trace == second.trace
    assert first.upper_bound == second.upper_bound


def test_drop_budget_and_threshold_respected():
    inst = a.generate_instance(4, 3)
    for n_d in (1, 3):
        result = a.successive_convex_relaxation(
            inst, COST, a.SCRConfig(max_drops_per_iteration=n_d)
        )
        for record in result.trace:
            assert len(record.dropped) <= n_d


def test_higher_budget_reduces_iterations():
    inst = a.generate_instance(6, 4)
    iters = {}
    for n_d in (1, 10):
        iters[n_d] = a.successive_convex_relaxation(
            inst, COST, a.SCRConfig(max_drops_per_iteration=n_d)
        ).iterations
    assert iters[10] <= iters[1]


def test_sweep_median_iterations_monotone_in_budget():
    import statistics

    seeds = list(range(1, 9))
    medians = []
    for n_d in (1, 5):
        rows = a.scr_sweep([4], [n_d], seeds, COST)
        medians.append(statistics.median(r.iterations for r in rows))
    assert medians[1] <= medians[0]


def test_polish_only_improves():
    inst = a.generate_instance(5, 8)
    raw = a.successive_convex_relaxation(inst, COST, a.SCRConfig(polish=False))
    polished = a.successive_convex_relaxation(inst, COST, a.SCRConfig(polish=True))
    assert polished.upper_bound <= raw.upper_bound + 1e-12
    assert raw.lower_bound == pytest.approx(polished.lower_bound, rel=1e-9)
    # the raw loop is still a valid upper bound
    optimum = a.brute_force(inst, COST).objective_value
    assert raw.upper_bound >= optimum - 1e-9


def test_polish_schedule_descends_to_local_optimum():
    inst = a.generate_instance(3, 14)
    sets_ = a.start_sets(inst)
    worst = tuple(starts[0] for starts in sets_)
    polished = a.polish_schedule(inst, COST, worst)
    before = a.energy_cost(
        a.load_profile_from_schedule(inst, worst), inst.cost_coefficients
    )
    after = a.energy_cost(
        a.load_profile_from_schedule(inst, polished), inst.cost_coefficients
    )
    assert after <= before
    assert a.polish_schedule(inst, COST, polished) == polished


def test_near_tied_flows_drop_and_keep_by_user_and_slot():
    """Two identical appliances whose flows differ only in the last bits, as
    solver output for identical users does: user 1's copy of the smallest
    value is 1e-15 smaller and of the row maximum 1e-15 larger. Values within
    INTEGRAL_TOL tie, so the first drop is the lowest (user, slot) and both
    rows keep their lowest slot."""
    twins = [a.Appliance.constant("twin", 0, 5, 2, 1.0)] * 2
    instance = a.ProblemInstance(24, twins, [0.1] * 24)
    table = a.PlacementTable(instance)
    flows = np.zeros((2, 24))
    flows[:, :5] = [0.4, 0.4, 0.1, 0.05, 0.05]
    flows[1, 1] += 1e-15
    flows[1, 4] -= 1e-15
    assert scr._select_drops(table, flows, [], a.SCRConfig()) == ((0, 3),)
    everything = a.SCRConfig(drop_threshold=0.5, max_drops_per_iteration=10)
    assert scr._select_drops(table, flows, [], everything) == (
        (0, 3), (0, 4), (1, 3), (1, 4), (0, 2), (1, 2), (0, 1), (1, 1)
    )
    assert scr._leading_starts(flows).tolist() == [0, 0]


def test_iteration_limit_error():
    inst = a.generate_instance(3, 2)
    with pytest.raises(a.IterationLimitError):
        a.successive_convex_relaxation(inst, COST, a.SCRConfig(max_iterations=1))


def test_config_validation():
    with pytest.raises(ValueError):
        a.SCRConfig(drop_threshold=0.0)
    with pytest.raises(ValueError):
        a.SCRConfig(drop_threshold=1.0)
    with pytest.raises(ValueError):
        a.SCRConfig(max_drops_per_iteration=0)


def test_sweep_rows_and_determinism():
    rows = a.scr_sweep([2, 3], [1, 5], [1, 2, 3], COST)
    assert len(rows) == 2 * 2 * 3
    assert [(r.n, r.n_d, r.seed) for r in rows] == [
        (n, n_d, seed) for n in (2, 3) for n_d in (1, 5) for seed in (1, 2, 3)
    ]
    again = a.scr_sweep([2, 3], [1, 5], [1, 2, 3], COST)
    for row, row2 in zip(rows, again):
        assert row.gap == row.upper_bound - row.lower_bound
        assert row.gap >= -1e-6
        assert (row.lower_bound, row.upper_bound, row.iterations) == (
            row2.lower_bound,
            row2.upper_bound,
            row2.iterations,
        )


def stalling_par_instance():
    """Ten constant-level appliances on the catalog's windows and durations.

    Under an earlier drop tie rule, SCR reached a round-178 PAR relaxation,
    with the drops in ``stalling_round_drops()``, on which the dense Newton
    step converged in gap and dual residual by IPM iteration 7, but whose
    primal residual stalled near 1e-7, above the tolerance; the iterates then
    shrank towards zero until they overflowed. The structured step solves it.
    """
    levels = (
        ("clothes_dryer", 0.553),
        ("washing_machine_energy_star", 0.4695),
        ("dish_washer", 0.6283),
        ("dish_washer", 0.6246),
        ("clothes_dryer", 0.6719),
        ("phev", 3.3838),
        ("phev", 3.6123),
        ("washing_machine_regular", 0.5925),
        ("washing_machine_energy_star", 0.5186),
        ("washing_machine_regular", 0.7029),
    )
    appliances = []
    for k, (key, level) in enumerate(levels):
        entry = a.DEFAULT_CATALOG[key]
        window = (entry.window_start, entry.window_end, entry.duration)
        appliances.append(a.Appliance.constant(f"{key}_{k}", *window, level))
    return a.ProblemInstance(24, appliances, a.default_cost_coefficients())


def stalling_round_drops():
    """The 177 drops made before the stalling round, in drop order."""
    return [tuple(pair) for pair in json.loads(STALLING_DROPS.read_text())]


def test_scr_par_completes_on_stalling_instance():
    result = a.successive_convex_relaxation(stalling_par_instance(), PAR)
    assert result.lower_bound <= result.upper_bound + 1e-6
