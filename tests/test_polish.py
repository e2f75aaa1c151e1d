"""The scored polish against the plain per-candidate loop it replaced.

``reference_polish`` is that loop, kept verbatim apart from building each
load profile by hand and scoring it with ``objectives.score_loads``: it
rebuilds the profile for every user, copies it for every candidate start and
scores the copy. The library's polish must return
exactly the same schedule on any instance.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import atomsched as a
from atomsched.objectives import score_loads
from conftest import PRICES, appliances


def reference_loads(instance, starts):
    horizon = instance.horizon
    loads = np.zeros(horizon)
    for appliance, s in zip(instance.appliances, starts):
        slots = (s + np.arange(appliance.duration)) % horizon
        loads[slots] += np.asarray(appliance.energy_pattern)
    return loads


def score(instance, objective, loads):
    coefficients = np.asarray(instance.cost_coefficients)
    return score_loads(objective, loads, coefficients, a.instance_total_energy(instance))


def reference_value(instance, objective, starts):
    return score(instance, objective, reference_loads(instance, starts))


def reference_polish(instance, objective, schedule):
    sets_ = a.start_sets(instance)
    horizon = instance.horizon
    table = a.PlacementTable(instance)
    starts = table.starts[table.schedule_columns(schedule)].tolist()
    moved = True
    while moved:
        moved = False
        for n, appliance in enumerate(instance.appliances):
            pattern = np.asarray(appliance.energy_pattern)
            others = reference_loads(instance, starts)
            others[(starts[n] + np.arange(appliance.duration)) % horizon] -= pattern
            best_s = starts[n]
            best_v = reference_value(instance, objective, starts)
            for s in sets_[n]:
                candidate = others.copy()
                candidate[(s + np.arange(appliance.duration)) % horizon] += pattern
                value = score(instance, objective, candidate)
                if value < best_v - 1e-12:
                    best_v, best_s = value, s
            if best_s != starts[n]:
                starts[n] = best_s
                moved = True
    return tuple(starts)


@st.composite
def cases(draw):
    horizon = draw(st.sampled_from([24, 24, 5, 12, 30]))
    users = draw(st.lists(appliances(horizon), min_size=1, max_size=5))
    prices = draw(st.lists(PRICES, min_size=horizon, max_size=horizon))
    instance = a.ProblemInstance(horizon, users, prices)
    schedule = tuple(
        draw(st.sampled_from(starts)) for starts in a.start_sets(instance)
    )
    objective = draw(st.sampled_from(list(a.ObjectiveKind)))
    return instance, objective, schedule


def _covering_case(objective):
    """Duration equal to the window, a window across midnight, a zero-price
    slot and a non-constant pattern, all in one instance."""
    users = [
        a.Appliance("tight", 3, 5, 3, (1.0, 2.0, 0.5)),
        a.Appliance("night", 22, 29, 3, (2.0, 1.0, 1.0)),
        a.Appliance("day", 0, 23, 2, (0.7, 1.3)),
    ]
    prices = list(a.default_cost_coefficients(24))
    prices[1] = 0.0
    return a.ProblemInstance(24, users, prices), objective, (3, 3, 3)


@settings(max_examples=300, deadline=None)
@given(cases())
@example(_covering_case(a.ObjectiveKind.COST))
@example(_covering_case(a.ObjectiveKind.PAR))
def test_polish_matches_reference_loop(case):
    instance, objective, schedule = case
    assert a.polish_schedule(instance, objective, schedule) == reference_polish(
        instance, objective, schedule
    )


def test_polish_objective_must_be_an_objective_kind():
    instance = a.generate_instance(3, 1)
    first = tuple(starts[0] for starts in a.start_sets(instance))
    with pytest.raises(ValueError, match="unknown objective 'cost'"):
        a.polish_schedule(instance, "cost", first)
