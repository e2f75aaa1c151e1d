import itertools
import re

import numpy as np
import pytest

import atomsched as a
from atomsched import scr
from atomsched.errors import InfeasibleFlowError, InvalidInstanceError
from atomsched.flows import FEASIBILITY_TOL, check_flows, one_hot_rows

from conftest import random_relaxed_flows


def flow_loads(instance, flows):
    """Per-slot load of a relaxed-feasible flow matrix, checked first."""
    table = a.PlacementTable(instance)
    return table.flow_loads(check_flows(flows, table.feasible, FEASIBILITY_TOL))


def one_hot_flows(instance, schedule):
    """The flow matrix of a schedule: a 1 at each user's start column."""
    table = a.PlacementTable(instance)
    columns = table.schedule_columns(schedule)
    flows = np.zeros((instance.n_users, instance.horizon))
    flows[table.users[columns], table.starts[columns]] = 1.0
    return flows


def test_load_profile_one_hot_dish_washer(dish_washer_instance):
    flows = np.zeros((1, 24))
    flows[0, 3] = 1.0
    loads = flow_loads(dish_washer_instance, flows)
    expected = np.zeros(24)
    expected[3] = expected[4] = 0.72
    assert np.allclose(loads, expected, atol=1e-15)


def test_load_profile_half_and_half(dish_washer_instance):
    flows = np.zeros((1, 24))
    flows[0, 0] = flows[0, 1] = 0.5
    loads = flow_loads(dish_washer_instance, flows)
    assert loads[0] == pytest.approx(0.36, abs=1e-15)
    assert loads[1] == pytest.approx(0.72, abs=1e-15)
    assert loads[2] == pytest.approx(0.36, abs=1e-15)
    assert np.all(loads[3:] == 0.0)


def test_load_profile_disjoint_window_pair(two_window_instance):
    flows = one_hot_flows(two_window_instance, (0, 9))
    loads = flow_loads(two_window_instance, flows)
    expected = np.zeros(24)
    expected[[0, 1, 9, 10, 11]] = 1.0
    assert np.array_equal(loads, expected)


def test_load_profile_from_schedule_wraparound(phev_instance):
    loads = a.PlacementTable(phev_instance).schedule_loads((23,))
    assert loads[23] == loads[0] == loads[1] == 3.3
    assert np.all(loads[2:23] == 0.0)


def test_load_profile_superposition(two_tier_coefficients):
    inst = a.ProblemInstance(
        24,
        [a.catalog_appliance("dish_washer"), a.catalog_appliance("clothes_dryer")],
        two_tier_coefficients,
    )
    loads = a.PlacementTable(inst).schedule_loads((0, 0))
    assert loads[0] == pytest.approx(1.345, abs=1e-12)
    assert loads[1] == pytest.approx(1.345, abs=1e-12)
    assert loads[2] == pytest.approx(0.625, abs=1e-12)
    assert loads[3] == pytest.approx(0.625, abs=1e-12)
    assert np.all(loads[4:] == 0.0)


def test_schedule_round_trip(phev_instance, two_tier_coefficients):
    two = a.ProblemInstance(
        24,
        [a.catalog_appliance("phev", "p0"), a.catalog_appliance("phev", "p1")],
        two_tier_coefficients,
    )
    table = a.PlacementTable(two)
    flows = one_hot_flows(two, (22, 0))
    assert flows[0, 22] == 1.0 and flows[1, 0] == 1.0
    assert flows.sum() == 2.0
    for s in a.start_sets(two)[0]:
        columns = table.schedule_columns((s, 1))
        assert table.users[columns].tolist() == [0, 1]
        assert table.starts[columns].tolist() == [s, 1]


def test_schedule_to_flows_rejects_infeasible_start(dish_washer_instance):
    with pytest.raises(InfeasibleFlowError):
        a.PlacementTable(dish_washer_instance).schedule_columns((23,))  # start set is 0..22


def test_non_integer_starts_rejected():
    inst = a.generate_instance(2, 3)
    table = a.PlacementTable(inst)
    for call in (table.schedule_columns, table.schedule_loads):
        with pytest.raises(InfeasibleFlowError):
            call((2.7, 0.9))
    with pytest.raises(InfeasibleFlowError):
        a.polish_schedule(inst, a.ObjectiveKind.COST, (2.7, 0.9))
    columns = table.schedule_columns((np.int64(2), np.int32(0)))
    assert table.starts[columns].tolist() == [2, 0]


# A flow matrix is read as a schedule the way SCR reads the relaxed optimum:
# rows that pass `one_hot_rows` are integral, and `scr._leading_starts` gives
# each row's start. The three tests below keep their names from the deleted
# `flows_to_schedule`, whose checks these two functions and `check_flows` now make.


def test_flows_to_schedule_rejects_non_finite_and_misshaped(dish_washer_instance):
    feasible = a.PlacementTable(dish_washer_instance).feasible
    flows = np.zeros((1, 24))
    flows[0, 0] = np.nan
    with pytest.raises(InfeasibleFlowError, match="non-finite"):
        check_flows(flows, feasible, np.inf)
    with pytest.raises(InfeasibleFlowError, match=re.escape("shape (2, 24), expected (1, 24)")):
        check_flows(np.eye(2, 24), feasible, np.inf)


def test_flows_to_schedule_fractional_raises():
    flows = np.zeros((1, 24))
    flows[0, 0] = flows[0, 1] = 0.5
    assert one_hot_rows(flows).tolist() == [False]
    assert scr._leading_starts(flows).tolist() == [0]


def test_flows_to_schedule_threshold_boundary():
    flows = np.zeros((1, 24))
    flows[0, 5] = 0.9999999
    flows[0, 6] = 1e-7
    assert one_hot_rows(flows).tolist() == [True]
    assert scr._leading_starts(flows).tolist() == [5]


def test_validate_flows_rejections(dish_washer_instance):
    feasible = a.PlacementTable(dish_washer_instance).feasible
    flows = np.zeros((1, 24))
    flows[0, 0] = 0.9  # row sum != 1
    with pytest.raises(InfeasibleFlowError):
        check_flows(flows, feasible, FEASIBILITY_TOL)
    flows = np.zeros((1, 24))
    flows[0, 23] = 1.0  # outside the start set
    with pytest.raises(InfeasibleFlowError, match="nonzero flow 1.0 at start 23 outside"):
        check_flows(flows, feasible, FEASIBILITY_TOL)
    flows = np.zeros((1, 24))
    flows[0, 0], flows[0, 1] = 1.5, -0.5
    with pytest.raises(InfeasibleFlowError, match=re.escape("[0, 1] (min -0.5, max 1.5)")):
        check_flows(flows, feasible, FEASIBILITY_TOL)
    flows = np.zeros((2, 24))
    with pytest.raises(InfeasibleFlowError):
        check_flows(flows, feasible, FEASIBILITY_TOL)  # wrong shape


def test_energy_conservation_random_flows():
    rng = np.random.default_rng(7)
    for seed in (1, 2, 3):
        inst = a.generate_instance(4, seed)
        total = a.instance_total_energy(inst)
        for _ in range(50):
            flows = random_relaxed_flows(inst, rng)
            loads = flow_loads(inst, flows)
            assert abs(loads.sum() - total) <= 1e-9


def test_load_profile_linearity():
    rng = np.random.default_rng(11)
    inst = a.generate_instance(3, 5)
    for _ in range(25):
        f = random_relaxed_flows(inst, rng)
        g = random_relaxed_flows(inst, rng)
        lam = float(rng.uniform())
        mixed = flow_loads(inst, lam * f + (1 - lam) * g)
        combo = lam * flow_loads(inst, f) + (1 - lam) * flow_loads(inst, g)
        assert np.allclose(mixed, combo, atol=1e-12)


def test_schedule_and_flow_paths_agree_exhaustively(two_tier_coefficients):
    appliances = [
        a.Appliance.constant("x", 0, 5, 2, 1.0),
        a.Appliance.constant("y", 9, 14, 3, 1.0),
        a.Appliance.constant("z", 20, 26, 2, 0.5),
    ]
    inst = a.ProblemInstance(24, appliances, two_tier_coefficients)
    table = a.PlacementTable(inst)
    for schedule in itertools.product(*a.start_sets(inst)):
        direct = table.schedule_loads(schedule)
        via_flows = flow_loads(inst, one_hot_flows(inst, schedule))
        assert np.array_equal(direct, via_flows)


def test_placement_table_rejects_pairs_off_the_flow_columns():
    inst = a.generate_instance(3, 1)  # start sets 0..21, 0..21 and 0..20
    table = a.PlacementTable(inst)
    for starts in ((0, 3, 23), (0, 3, 21), (-1, 3, 6)):
        with pytest.raises(InfeasibleFlowError):
            table.schedule_loads(starts)
    for starts in ((0, 3), (0, 3, 6, 9)):  # too few and too many starts
        with pytest.raises(InfeasibleFlowError, match=f"{len(starts)} starts for 3 users"):
            table.schedule_columns(starts)
    with pytest.raises(InvalidInstanceError, match=r"drop \(2, 21\)"):
        table.live([(0, 1), (2, 21), (1, 99)])


MALFORMED_DROPS = ([(1, 2, 3)], [(1, 2), (3,)], [5])


@pytest.mark.parametrize("dropped", MALFORMED_DROPS)
def test_malformed_drop_pairs_are_typed_errors(dropped):
    inst = a.generate_instance(3, 1)
    with pytest.raises(InvalidInstanceError, match="does not name a feasible start"):
        a.PlacementTable(inst).live(dropped)
    with pytest.raises(InvalidInstanceError, match="does not name a feasible start"):
        a.solve_relaxed(inst, a.ObjectiveKind.COST, dropped)
