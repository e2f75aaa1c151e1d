import itertools
import re

import numpy as np
import pytest

import atomsched as a
from atomsched.errors import InvalidInstanceError


def starts_of(appliance, horizon):
    """The appliance's start set, alone in an instance of ``horizon`` slots."""
    return a.start_sets(a.ProblemInstance(horizon, [appliance], (0.2,) * horizon))[0]


def energy_of(appliance):
    """The appliance's kWh over one operation, alone in an hourly instance."""
    return a.instance_total_energy(a.ProblemInstance(24, [appliance], (0.2,) * 24))


def test_total_daily_energy_catalog_values():
    assert energy_of(a.catalog_appliance("dish_washer")) == pytest.approx(1.44, abs=1e-12)
    assert energy_of(a.catalog_appliance("phev")) == pytest.approx(9.9, abs=1e-12)
    single = a.Appliance("tiny", 0, 5, 1, (0.5,))
    assert energy_of(single) == 0.5


def test_feasible_starts_plain_window():
    dw = a.catalog_appliance("dish_washer")
    starts = starts_of(dw, 24)
    assert starts == tuple(range(23))


def test_feasible_starts_wraparound_phev():
    phev = a.catalog_appliance("phev")
    assert starts_of(phev, 24) == (22, 23, 0, 1, 2, 3)


def test_feasible_starts_full_day_single_choice():
    full = a.Appliance.constant("allday", 0, 23, 24, 0.1)
    assert starts_of(full, 24) == (0,)


def _occupied(table, column):
    """The slots row ``column`` loads, in slot order, and their loads."""
    slots = np.flatnonzero(table.rows[column])
    return slots.tolist(), table.rows[column, slots].tolist()


def test_placement_rows_examples(two_tier_coefficients):
    inst = a.ProblemInstance(
        24,
        [
            a.Appliance("mid", 3, 4, 2, (1.0, 2.0)),
            a.Appliance("midnight", 23, 25, 3, (1.0, 2.0, 3.0)),
            a.Appliance("one", 0, 1, 1, (0.5,)),
        ],
        two_tier_coefficients,
    )
    table = a.PlacementTable(inst)
    assert table.starts.tolist() == [3, 23, 0, 1]
    assert _occupied(table, 0) == ([3, 4], [1.0, 2.0])
    # wraps past midnight: the pattern's order follows the operation, not the slots
    assert _occupied(table, 1) == ([0, 1, 23], [2.0, 3.0, 1.0])
    assert _occupied(table, 2) == ([0], [0.5])
    assert _occupied(table, 3) == ([1], [0.5])


def test_operation_range_rejects_bad_duration(two_tier_coefficients):
    # a 25-slot operation cannot fit a 24-slot day
    with pytest.raises(InvalidInstanceError, match="more than the horizon allows"):
        a.ProblemInstance(
            24, [a.Appliance.constant("long", 0, 24, 25, 1.0)], two_tier_coefficients
        )
    with pytest.raises(InvalidInstanceError, match="duration must be >= 1"):
        a.Appliance("bad", 0, 3, 0, ())
    # slot 24 is past the last slot of the day, so no placement row starts there
    inst = a.ProblemInstance(
        24, [a.Appliance.constant("one", 0, 23, 1, 1.0)], two_tier_coefficients
    )
    assert 24 not in a.PlacementTable(inst).starts.tolist()
    with pytest.raises(a.InfeasibleFlowError):
        a.PlacementTable(inst).schedule_columns((24,))


def test_enumeration_size_worst_case_is_exact():
    appliances = [a.Appliance("u%d" % i, 0, 23, 1, (1.0,)) for i in range(100)]
    inst = a.ProblemInstance(24, appliances, a.default_cost_coefficients())
    assert a.enumeration_size(inst) == 24**100


def test_enumeration_size_small_instances(dish_washer_instance, two_tier_coefficients):
    assert a.enumeration_size(dish_washer_instance) == 23
    phevs = a.ProblemInstance(
        24,
        [a.catalog_appliance("phev", "p0"), a.catalog_appliance("phev", "p1")],
        two_tier_coefficients,
    )
    assert a.enumeration_size(phevs) == 36


def test_enumeration_size_matches_materialized_product(two_tier_coefficients):
    appliances = [
        a.Appliance.constant("x", 0, 5, 2, 1.0),
        a.Appliance.constant("y", 9, 14, 3, 1.0),
        a.Appliance.constant("z", 20, 26, 2, 1.0),
    ]
    inst = a.ProblemInstance(24, appliances, two_tier_coefficients)
    product = list(itertools.product(*a.start_sets(inst)))
    assert a.enumeration_size(inst) == len(product)
    assert a.enumeration_size(inst) <= 10**6


def _random_valid_appliance(rng, horizon):
    alpha = int(rng.integers(0, horizon))
    span = int(rng.integers(1, horizon))  # beta - alpha in [1, horizon-1]
    beta = alpha + span
    delta = int(rng.integers(1, span + 2))  # <= span + 1
    pattern = tuple(float(g) for g in rng.uniform(0.1, 3.0, size=delta))
    return a.Appliance("r", alpha, beta, delta, pattern)


def test_start_set_size_and_window_property():
    rng = np.random.default_rng(1234)
    for _ in range(300):
        horizon = int(rng.integers(2, 40))
        appl = _random_valid_appliance(rng, horizon)
        starts = starts_of(appl, horizon)
        expected = appl.window_end - appl.duration - appl.window_start + 2
        assert len(starts) == expected
        window = {i % horizon for i in range(appl.window_start, appl.window_end + 1)}
        table = a.PlacementTable(a.ProblemInstance(horizon, [appl], (0.2,) * horizon))
        assert table.starts.tolist() == list(starts)
        for s, row in zip(starts, table.rows):
            occupied = [(s + j) % horizon for j in range(appl.duration)]
            assert len(set(occupied)) == appl.duration
            assert set(occupied) <= window
            assert set(np.flatnonzero(row).tolist()) == set(occupied)
            assert row[occupied].tolist() == list(appl.energy_pattern)


def test_appliance_invariant_rejections():
    with pytest.raises(InvalidInstanceError):
        a.Appliance("bad", 0, 2, 4, (1.0, 1.0, 1.0, 1.0))  # window too short
    with pytest.raises(InvalidInstanceError):
        a.Appliance("bad", 5, 5, 1, (1.0,))  # window_end must exceed window_start
    with pytest.raises(InvalidInstanceError):
        a.Appliance("bad", 0, 3, 2, (1.0,))  # pattern length != duration
    with pytest.raises(InvalidInstanceError):
        a.Appliance("bad", 0, 3, 2, (1.0, 0.0))  # nonpositive level
    with pytest.raises(InvalidInstanceError):
        a.Appliance("bad", 0, 3, 2, (1.0, float("nan")))
    with pytest.raises(InvalidInstanceError, match="window_start must be an integer, got 0.5"):
        a.Appliance("bad", 0.5, 23.0, 2, (1.0, 1.0))
    with pytest.raises(InvalidInstanceError, match="duration must be an integer, got 2.0"):
        a.Appliance("bad", 0, 23, 2.0, (1.0, 1.0))
    with pytest.raises(InvalidInstanceError, match="window_start must be an integer, got True"):
        a.Appliance("bad", True, 23, 2, (1.0, 1.0))
    a.Appliance("ok", np.int64(0), np.int64(23), np.int64(2), (1.0, 1.0))  # numpy ints are integers


def test_numpy_integers_are_stored_as_ints(two_tier_coefficients):
    """A horizon is any integer an appliance window may be. Both are stored
    as plain ints, so the instance still serializes."""
    ok = a.Appliance.constant("ok", 0, 5, 2, 1.0)
    numpy_ok = a.Appliance.constant("ok", np.int64(0), np.int32(5), np.int64(2), 1.0)
    inst = a.ProblemInstance(np.int64(24), [numpy_ok], two_tier_coefficients)
    assert type(inst.horizon) is int and inst.horizon == 24
    assert all(type(getattr(numpy_ok, key)) is int for key in ("window_start", "window_end", "duration"))
    assert a.parse_instance(a.serialize_instance(inst)) == a.ProblemInstance(
        24, [ok], two_tier_coefficients
    )


def test_instance_invariant_rejections(two_tier_coefficients):
    ok = a.Appliance.constant("ok", 0, 5, 2, 1.0)
    with pytest.raises(InvalidInstanceError):
        a.ProblemInstance(1, [ok], (0.2,))  # horizon too small
    with pytest.raises(InvalidInstanceError, match="horizon must be an integer"):
        a.ProblemInstance(24.0, [ok], two_tier_coefficients)
    with pytest.raises(InvalidInstanceError, match="horizon must be an integer, got True"):
        a.ProblemInstance(True, [ok], (0.2,))
    with pytest.raises(InvalidInstanceError, match=re.escape("horizon must be in [2, 1440]")):
        a.ProblemInstance(1441, [ok], (0.2,) * 1441)
    with pytest.raises(InvalidInstanceError, match=re.escape("window_end must be in [1, 46]")):
        a.ProblemInstance(
            24, [a.Appliance.constant("late", 20, 50, 2, 1.0)], two_tier_coefficients
        )
    with pytest.raises(InvalidInstanceError):
        a.ProblemInstance(24, [], two_tier_coefficients)  # no appliances
    with pytest.raises(InvalidInstanceError):
        a.ProblemInstance(24, [ok], (0.2,) * 23)  # wrong coefficient count
    with pytest.raises(InvalidInstanceError):
        a.ProblemInstance(24, [ok], (-0.1,) + (0.2,) * 23)  # negative price
    with pytest.raises(InvalidInstanceError):
        # window beyond the wraparound bound: beta - alpha > horizon - 1
        a.ProblemInstance(
            24, [a.Appliance.constant("wide", 0, 24, 2, 1.0)], two_tier_coefficients
        )
    with pytest.raises(InvalidInstanceError):
        # alpha outside [0, horizon-1]
        a.ProblemInstance(
            6, [a.Appliance.constant("late", 7, 9, 2, 1.0)], (0.2,) * 6
        )
