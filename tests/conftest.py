import numpy as np
import pytest
from hypothesis import strategies as st

import atomsched as a
from atomsched.objectives import score_loads


@pytest.fixture
def two_tier_coefficients():
    return a.default_cost_coefficients(24)


@pytest.fixture
def dish_washer_instance(two_tier_coefficients):
    return a.ProblemInstance(
        24, [a.catalog_appliance("dish_washer")], two_tier_coefficients
    )


@pytest.fixture
def phev_instance(two_tier_coefficients):
    return a.ProblemInstance(24, [a.catalog_appliance("phev")], two_tier_coefficients)


@pytest.fixture
def two_window_instance(two_tier_coefficients):
    """Two unit-level appliances in disjoint windows (5 and 4 feasible starts)."""
    first = a.Appliance.constant("morning", 0, 5, 2, 1.0)
    second = a.Appliance.constant("midday", 9, 14, 3, 1.0)
    return a.ProblemInstance(24, [first, second], two_tier_coefficients)


def random_relaxed_flows(instance, rng):
    """Random point of the relaxed polytope: Dirichlet mass on each start set."""
    flows = np.zeros((instance.n_users, instance.horizon))
    for n, starts in enumerate(a.start_sets(instance)):
        flows[n, list(starts)] = rng.dirichlet(np.ones(len(starts)))
    return flows


def schedule_value(instance, objective, schedule):
    """The objective of one schedule, as SCR and the oracle score it."""
    table = a.PlacementTable(instance)
    loads = table.schedule_loads(schedule)
    return score_loads(objective, loads, table.coefficients, table.total_energy)


# hypothesis strategies for random instances
LEVELS = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)
PRICES = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def appliances(draw, horizon):
    duration = draw(st.integers(1, min(horizon, 8)))
    # a window as short as the operation (but at least two slots), possibly
    # running past the end of the day
    length = draw(st.integers(max(duration, 2), horizon))
    window_start = draw(st.integers(0, horizon - 1))
    pattern = draw(st.lists(LEVELS, min_size=duration, max_size=duration))
    return a.Appliance(
        "x", window_start, window_start + length - 1, duration, tuple(pattern)
    )
