import functools
from unittest.mock import patch

import numpy as np
import pytest

import atomsched as a
from atomsched import ipm, relaxation
from atomsched.errors import InvalidInstanceError
from atomsched.flows import check_flows, one_hot_rows
from atomsched.objectives import score_loads

from conftest import schedule_value

COST = a.ObjectiveKind.COST
PAR = a.ObjectiveKind.PAR


def test_pinned_user_yields_one_hot(two_tier_coefficients):
    # duration equals the window, so there is exactly one feasible start
    appl = a.Appliance.constant("fixed", 4, 7, 4, 0.8)
    inst = a.ProblemInstance(24, [appl], two_tier_coefficients)
    assert a.start_sets(inst) == ((4,),)
    sol = a.solve_relaxed(inst, COST)
    assert sol.flows[0, 4] == pytest.approx(1.0, abs=1e-8)
    forced = schedule_value(inst, COST, (4,))
    assert sol.objective_value == pytest.approx(forced, rel=1e-7)


def test_relaxed_cost_is_lower_bound():
    for seed in (1, 2, 3, 4):
        inst = a.generate_instance(3, seed)
        relaxed = a.solve_relaxed(inst, COST).objective_value
        optimum = a.brute_force(inst, a.ObjectiveKind.COST).objective_value
        assert relaxed <= optimum + 1e-6
        # fluid two-sided check: spreading the total energy with inverse-price
        # weights lower-bounds any load profile's quadratic cost
        energy = a.instance_total_energy(inst)
        fluid = energy**2 / sum(1.0 / c for c in inst.cost_coefficients)
        assert relaxed >= fluid - 1e-9


def test_relaxed_par_is_lower_bound():
    for seed in (1, 2, 3):
        inst = a.generate_instance(3, seed)
        peak = a.solve_relaxed(inst, PAR).objective_value
        ratio = a.par_ratio_from_peak(inst, peak)
        optimum = a.brute_force(inst, a.ObjectiveKind.PAR).objective_value
        assert ratio <= optimum + 1e-6


def test_dropping_to_single_start_forces_schedule():
    inst = a.generate_instance(2, 3)
    sets_ = a.start_sets(inst)
    target = tuple(starts[2] for starts in sets_)
    dropped = {
        (n, s) for n, starts in enumerate(sets_) for s in starts if s != target[n]
    }
    sol = a.solve_relaxed(inst, COST, dropped)
    forced = schedule_value(inst, COST, target)
    assert sol.objective_value == pytest.approx(forced, rel=1e-7)
    assert one_hot_rows(sol.flows).all()
    assert tuple(sol.flows.argmax(axis=1).tolist()) == target


def test_drop_monotonicity():
    inst = a.generate_instance(3, 6)
    sets_ = a.start_sets(inst)
    nested = [
        set(),
        {(0, sets_[0][0])},
        {(0, sets_[0][0]), (1, sets_[1][0])},
        {(0, sets_[0][0]), (1, sets_[1][0]), (1, sets_[1][1]), (2, sets_[2][5])},
    ]
    for objective in (COST, PAR):
        values = [a.solve_relaxed(inst, objective, d).objective_value for d in nested]
        for smaller, larger in zip(values, values[1:]):
            assert smaller <= larger + 1e-7


def test_dropped_entries_are_exactly_zero():
    inst = a.generate_instance(3, 2)
    sets_ = a.start_sets(inst)
    dropped = {(1, sets_[1][0]), (1, sets_[1][4]), (2, sets_[2][2])}
    for objective in (COST, PAR):
        sol = a.solve_relaxed(inst, objective, dropped)
        for n, s in dropped:
            assert sol.flows[n, s] == 0.0
        check_flows(sol.flows, a.PlacementTable(inst).feasible, 1e-6)


def test_objective_reproducible_from_flows():
    for seed in (1, 5):
        inst = a.generate_instance(4, seed)
        table = a.PlacementTable(inst)
        sol = a.solve_relaxed(inst, COST)
        loads = table.flow_loads(check_flows(sol.flows, table.feasible, 1e-6))
        recomputed = score_loads(COST, loads, table.coefficients, None)
        assert recomputed == pytest.approx(sol.objective_value, rel=1e-6)
        par_sol = a.solve_relaxed(inst, PAR)
        loads = table.flow_loads(check_flows(par_sol.flows, table.feasible, 1e-6))
        assert loads.max() == pytest.approx(par_sol.objective_value, rel=1e-6)


def test_single_dish_washer_relaxed_peak(dish_washer_instance):
    # 1.44 kWh spread over 24 coverable slots cannot beat 0.06 kWh peak,
    # and alternating half-weight starts attain it
    sol = a.solve_relaxed(dish_washer_instance, PAR)
    assert sol.objective_value == pytest.approx(0.06, abs=1e-6)
    assert a.par_ratio_from_peak(dish_washer_instance, sol.objective_value) == (
        pytest.approx(1.0, abs=1e-5)
    )


def test_disjoint_pair_relaxed_peak(two_window_instance):
    # user 1 must place 3 kWh inside 6 slots: peak >= 0.5, and 0.5 is feasible
    sol = a.solve_relaxed(two_window_instance, PAR)
    assert sol.objective_value == pytest.approx(0.5, abs=1e-6)


def test_identical_appliances_wide_window_peak(two_tier_coefficients):
    appliances = [a.Appliance.constant(f"u{i}", 0, 23, 2, 1.0) for i in range(3)]
    inst = a.ProblemInstance(24, appliances, two_tier_coefficients)
    relaxed = a.solve_relaxed(inst, PAR).objective_value
    assert relaxed <= 1.0 + 1e-6
    optimum = a.brute_force(inst, a.ObjectiveKind.PAR).objective_value
    assert optimum == pytest.approx(24.0 * 1.0 / 6.0, rel=1e-9)


def test_dropping_all_starts_of_a_user_rejected():
    inst = a.generate_instance(2, 1)
    sets_ = a.start_sets(inst)
    with pytest.raises(InvalidInstanceError):
        a.solve_relaxed(inst, COST, {(0, s) for s in sets_[0]})
    with pytest.raises(InvalidInstanceError):
        a.solve_relaxed(inst, COST, {(0, 99)})


def test_non_integer_drops_rejected():
    inst = a.generate_instance(2, 3)
    for dropped in ({(0, 2.7)}, {(0.5, 3)}):
        with pytest.raises(InvalidInstanceError):
            a.solve_relaxed(inst, COST, dropped)
    numpy_pair = {(np.int64(0), np.int32(2))}
    assert a.solve_relaxed(inst, COST, numpy_pair).flows[0, 2] == 0.0
    with pytest.raises(ValueError, match="unknown objective"):
        a.solve_relaxed(inst, "cost")


@pytest.mark.parametrize("objective", [COST, PAR])
def test_solver_failure_raises_solver_error(objective):
    inst = a.generate_instance(10, 1)
    truncated = functools.partial(ipm.solve_standard_form, max_iterations=3)
    with patch.object(relaxation, "solve_standard_form", truncated):
        with pytest.raises(a.SolverError, match="relaxed solve failed"):
            a.solve_relaxed(inst, objective)

    def negative_flow(x0, **problem):
        x = x0.copy()
        x[0] = -0.5
        return ipm.IpmResult(x, np.zeros(0), np.zeros(0), 0.0, 0, "optimal")

    with patch.object(relaxation, "solve_standard_form", negative_flow):
        with pytest.raises(a.SolverError, match="solver returned infeasible flows"):
            a.solve_relaxed(inst, objective)

    def slightly_negative_flow(x0, **problem):
        # columns 0 and 1 are user 0's: its row still sums to 1, and only the
        # entry of -1e-5, past the 1e-6 tolerance but within 1e-3, breaks feasibility
        x = x0.copy()
        x[1] += x[0] + 1e-5
        x[0] = -1e-5
        return ipm.IpmResult(x, np.zeros(0), np.zeros(0), 0.0, 0, "optimal")

    with patch.object(relaxation, "solve_standard_form", slightly_negative_flow):
        with pytest.raises(a.SolverError, match=r"outside \[0, 1\] \(min -1e-05"):
            a.solve_relaxed(inst, objective)


def test_solution_iterations_reported():
    inst = a.generate_instance(3, 1)
    sol = a.solve_relaxed(inst, COST)
    assert sol.iterations > 0
