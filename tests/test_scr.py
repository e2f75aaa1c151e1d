import json
import pathlib

import numpy as np
import pytest

import atomsched as a
from atomsched import scr
from atomsched.flows import one_hot_rows

from conftest import schedule_value

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
    assert result.schedule[0] in a.start_sets(inst)[0]


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


@pytest.mark.parametrize("n, seed", [(2, 8), (2, 12), (2, 13), (3, 4), (3, 9)])
@pytest.mark.parametrize("objective", [COST, PAR])
def test_upper_bound_is_the_oracle_value_of_its_schedule(n, seed, objective):
    """SCR and the oracle score a schedule with one function, so they agree to
    the last bit on any schedule, whatever the BLAS kernel; CI also runs this
    test under OPENBLAS_CORETYPE=Sandybridge. The oracle scores SCR's
    schedule as the one schedule of the instance whose windows are cut to
    its starts, which has the same placement rows."""
    inst = a.generate_instance(n, seed)
    result = a.successive_convex_relaxation(inst, objective)
    optimum = a.brute_force(inst, objective)
    if result.schedule == optimum.schedule:
        assert result.upper_bound == optimum.objective_value
    cut = [
        a.Appliance(x.name, s, s + x.duration - 1, x.duration, x.energy_pattern)
        for x, s in zip(inst.appliances, result.schedule)
    ]
    alone = a.brute_force(a.ProblemInstance(inst.horizon, cut, inst.cost_coefficients), objective)
    assert (alone.objective_value, alone.schedule) == (result.upper_bound, result.schedule)


@pytest.mark.parametrize("n, seed", [(5, 1), (10, 1), (10, 2)])
@pytest.mark.parametrize("objective", [COST, PAR])
def test_every_round_matches_a_fresh_public_solve(n, seed, objective, monkeypatch):
    """SCR carries one placement table and one live-column mask through its
    rounds. Each round's relaxed solution must be bit-identical to a fresh
    public solve_relaxed of the drops made so far, with no table passed, and
    the mask _select_drops reads must be the live columns of those drops; CI
    also runs this test under OPENBLAS_CORETYPE=Sandybridge."""
    instance = a.generate_instance(n, seed)
    rounds, masks = [], []
    solve, select = scr.solve_relaxed, scr._select_drops

    def recording(*args, **kwargs):
        assert kwargs["table"] is not None
        solution = solve(*args, **kwargs)
        rounds.append((len(args[2]), solution))
        return solution

    def recording_select(table, flows, live, config):
        masks.append(live.copy())
        return select(table, flows, live, config)

    monkeypatch.setattr(scr, "solve_relaxed", recording)
    monkeypatch.setattr(scr, "_select_drops", recording_select)
    result = a.successive_convex_relaxation(instance, objective)
    assert len(rounds) == result.iterations == len(masks) + 1
    table = a.PlacementTable(instance)
    for (k, solution), mask in zip(rounds, masks):
        assert np.array_equal(mask, table.live(result.drop_history[:k])), k
    for k, solution in rounds:
        fresh = a.solve_relaxed(instance, objective, result.drop_history[:k])
        assert solution.flows.tobytes() == fresh.flows.tobytes(), k
        assert float(solution.objective_value).hex() == float(fresh.objective_value).hex(), k
        assert solution.iterations == fresh.iterations, k


def test_a_placement_table_of_another_instance_is_rejected():
    instance, other = a.generate_instance(3, 1), a.generate_instance(3, 2)
    table = a.PlacementTable(other)
    schedule = tuple(starts[0] for starts in table.start_sets)
    with pytest.raises(a.InvalidInstanceError, match="another instance"):
        a.solve_relaxed(instance, COST, table=table)
    with pytest.raises(a.InvalidInstanceError, match="another instance"):
        a.polish_schedule(instance, PAR, schedule, table=table)
    # an equal instance built anew shares the table
    twin = a.generate_instance(3, 2)
    assert twin is not other
    assert a.solve_relaxed(twin, COST, table=table).objective_value == (
        a.solve_relaxed(other, COST).objective_value
    )
    assert a.polish_schedule(twin, PAR, schedule, table=table) == (
        a.polish_schedule(other, PAR, schedule)
    )


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
        a.PlacementTable(inst).schedule_columns(result.schedule)


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
    polished = a.successive_convex_relaxation(inst, COST)
    # the dropping loop alone ends at the final round's integral schedule
    final = a.solve_relaxed(inst, COST, polished.drop_history).flows
    assert one_hot_rows(final).all()
    raw = tuple(final.argmax(axis=1).tolist())
    raw_upper = schedule_value(inst, COST, raw)
    assert polished.upper_bound <= raw_upper + 1e-12
    raw_lower = a.solve_relaxed(inst, COST).objective_value
    assert raw_lower == pytest.approx(polished.lower_bound, rel=1e-9)
    # the raw loop is still a valid upper bound
    optimum = a.brute_force(inst, COST).objective_value
    assert raw_upper >= optimum - 1e-9


def test_polish_schedule_descends_to_local_optimum():
    inst = a.generate_instance(3, 14)
    sets_ = a.start_sets(inst)
    worst = tuple(starts[0] for starts in sets_)
    polished = a.polish_schedule(inst, COST, worst)
    before = schedule_value(inst, COST, worst)
    after = schedule_value(inst, COST, polished)
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
    live = table.live([])
    assert scr._select_drops(table, flows, live, a.SCRConfig()) == ((0, 3),)
    everything = a.SCRConfig(drop_threshold=0.5, max_drops_per_iteration=10)
    assert scr._select_drops(table, flows, live, everything) == (
        (0, 3), (0, 4), (1, 3), (1, 4), (0, 2), (1, 2), (0, 1), (1, 1)
    )
    assert scr._leading_starts(flows).tolist() == [0, 0]


@pytest.mark.parametrize("objective", [COST, PAR])
def test_scr_needs_no_round_cap(objective, monkeypatch):
    """Each round that is not integral drops a live column until every user
    keeps one, so with no row ever one-hot the m - N + 1-th round finds
    nothing to drop and raises: the loop needs no round cap."""
    inst = a.generate_instance(3, 2)
    solve, solves = scr.solve_relaxed, []

    def counting(*args, **kwargs):
        solves.append(len(args[2]))  # drops made before this round
        return solve(*args, **kwargs)

    monkeypatch.setattr(scr, "one_hot_rows", lambda flows: np.zeros(len(flows), dtype=bool))
    monkeypatch.setattr(scr, "solve_relaxed", counting)
    with pytest.raises(a.SolverError, match="no droppable element"):
        a.successive_convex_relaxation(inst, objective)
    assert solves == list(range(max_rounds_bound(inst)))


def test_config_validation():
    with pytest.raises(ValueError):
        a.SCRConfig(drop_threshold=0.0)
    with pytest.raises(ValueError):
        a.SCRConfig(drop_threshold=1.0)
    with pytest.raises(ValueError):
        a.SCRConfig(max_drops_per_iteration=0)


@pytest.mark.parametrize(
    "field, value",
    [("max_drops_per_iteration", 1.5)],
)
def test_config_rejects_counts_that_are_not_positive_integers(field, value):
    with pytest.raises(ValueError, match=field):
        a.SCRConfig(**{field: value})


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
