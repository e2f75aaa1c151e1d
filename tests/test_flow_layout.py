"""Flow validation and SCR's drop selection against the per-user loops they
replaced.

``reference_validate_flows`` and ``reference_select_drops`` are those loops,
kept verbatim apart from the deleted Boolean check and from taking the drop
set as an argument. The library's check,
``check_flows(flows, PlacementTable(instance).feasible, tol)``, must fail with
the same error class, for the same first user and on the same check; its drop
selection must select the same drops in the same order, and keep the same
live columns for a drop set.
"""

import re
from itertools import islice, takewhile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import atomsched as a
from atomsched import flows as flows_module
from atomsched import scr
from atomsched.errors import InfeasibleFlowError, SolverError
from conftest import appliances

INTEGRAL_TOL = flows_module.INTEGRAL_TOL


def reference_validate_flows(instance, flows, tol):
    f = np.asarray(flows, dtype=np.float64)
    n_users, horizon = instance.n_users, instance.horizon
    if f.shape != (n_users, horizon):
        raise InfeasibleFlowError(
            f"flow matrix shape {f.shape}, expected {(n_users, horizon)}"
        )
    if not np.all(np.isfinite(f)):
        raise InfeasibleFlowError("flow matrix contains non-finite entries")
    sets_ = a.start_sets(instance)
    for n in range(n_users):
        row = f[n]
        allowed = np.zeros(horizon, dtype=bool)
        allowed[list(sets_[n])] = True
        outside = np.abs(row[~allowed])
        if outside.size and outside.max() > tol:
            s = int(np.argmax(~allowed * np.abs(row)))
            raise InfeasibleFlowError(
                f"user {n}: nonzero flow {row[s]!r} at start {s} outside the "
                "feasible start set"
            )
        if row.min() < -tol or row.max() > 1.0 + tol:
            raise InfeasibleFlowError(
                f"user {n}: flow entries outside [0, 1] (min {row.min()!r}, "
                f"max {row.max()!r})"
            )
        total = float(row[allowed].sum())
        if abs(total - 1.0) > tol:
            raise InfeasibleFlowError(f"user {n}: row sums to {total!r}, expected 1")
    return f


def reference_select_drops(instance, flows, dropped, config):
    sets_ = a.start_sets(instance)
    candidates = []
    for n in range(instance.n_users):
        live = sorted(s for s in sets_[n] if (n, s) not in dropped)
        best_s = max(live, key=lambda s: flows[n, s])
        for s in live:
            if s == best_s:
                continue
            value = float(flows[n, s])
            if value < 1.0 - INTEGRAL_TOL:
                candidates.append((value, n, s))
    if not candidates:
        raise SolverError("no droppable element although the solution is fractional")
    candidates.sort()
    small = takewhile(lambda c: c[0] < config.drop_threshold, candidates[1:])
    drops = [candidates[0], *islice(small, config.max_drops_per_iteration - 1)]
    return tuple((n, s) for _, n, s in drops)


CHECKS = ("shape", "non-finite", "outside the feasible", "outside [0, 1]", "row sums")


def failure(call):
    """(error class, user, failed check) of a call, or None if it passes."""
    try:
        call()
    except Exception as exc:
        message = str(exc)
        user = re.match(r"user (\d+):", message)
        check = next((c for c in CHECKS if c in message), message)
        return type(exc), user and int(user.group(1)), check
    return None


def draw_row(draw, flows, n, starts):
    """A probability row on ``starts`` with small integer weights, so equal
    weights give exactly tied flows."""
    weights = np.array(
        draw(st.lists(st.integers(0, 3), min_size=len(starts), max_size=len(starts))),
        dtype=float,
    )
    if not weights.any():
        weights[0] = 1.0
    flows[n, list(starts)] = weights / weights.sum()


@st.composite
def instances(draw):
    horizon = draw(st.sampled_from([24, 24, 5, 12]))
    users = draw(st.lists(appliances(horizon), min_size=1, max_size=4))
    return a.ProblemInstance(horizon, users, [0.1] * horizon)


@st.composite
def flow_cases(draw):
    instance = draw(instances())
    flows = np.zeros((instance.n_users, instance.horizon))
    for n, starts in enumerate(a.start_sets(instance)):
        draw_row(draw, flows, n, starts)
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(0, instance.n_users - 1))
        s = draw(st.integers(0, instance.horizon - 1))
        flows[n, s] += draw(
            st.sampled_from([-0.5, -1e-7, -1e-12, 1e-12, 1e-7, 0.5, 2.0, np.inf])
        )
    return instance, flows, draw(st.sampled_from([1e-9, 1e-6]))


@st.composite
def drop_cases(draw):
    instance = draw(instances())
    flows = np.zeros((instance.n_users, instance.horizon))
    dropped = []
    for n, starts in enumerate(a.start_sets(instance)):
        gone = draw(
            st.lists(st.sampled_from(starts), unique=True, max_size=len(starts) - 1)
        )
        dropped += [(n, s) for s in gone]
        draw_row(draw, flows, n, [s for s in starts if s not in gone])
    config = a.SCRConfig(
        drop_threshold=draw(st.sampled_from([0.05, 0.1, 0.3, 0.5, 0.9])),
        max_drops_per_iteration=draw(st.integers(1, 6)),
    )
    return instance, flows, draw(st.permutations(dropped)), config


def _midnight_tie():
    """Starts 22, 23, 0, 1, 2 in window order, with the row maximum tied
    between 22 and 0: slot 0 is protected, though 22 comes first in the
    window, and 22 drops. The second user's flows tie with the first's, and
    its row maximum is tied three ways."""
    users = [a.Appliance("night", 22, 27, 2, (1.0, 1.0))] * 2
    instance = a.ProblemInstance(24, users, [0.1] * 24)
    flows = np.zeros((2, 24))
    flows[0, [22, 23, 0, 1, 2]] = [0.3, 0.1, 0.3, 0.2, 0.1]
    flows[1, [22, 0, 1, 2]] = [0.1, 0.3, 0.3, 0.3]
    return instance, flows, [(1, 23)], a.SCRConfig(0.35, max_drops_per_iteration=6)


@settings(max_examples=300, deadline=None)
@given(flow_cases())
def test_validate_flows_matches_reference_loop(case):
    instance, flows, tol = case
    expected = failure(lambda: reference_validate_flows(instance, flows, tol))
    feasible = a.PlacementTable(instance).feasible
    assert failure(lambda: flows_module.check_flows(flows, feasible, tol)) == expected


@settings(max_examples=300, deadline=None)
@given(drop_cases())
@example(_midnight_tie())
def test_select_drops_matches_reference_loop(case):
    instance, flows, dropped, config = case
    table = a.PlacementTable(instance)
    pairs = zip(table.users.tolist(), table.starts.tolist())
    live = table.live(dropped)
    assert live.tolist() == [pair not in dropped for pair in pairs]
    try:
        expected = reference_select_drops(instance, flows, set(dropped), config)
    except SolverError:
        with pytest.raises(SolverError):
            scr._select_drops(table, flows, live, config)
    else:
        assert scr._select_drops(table, flows, live, config) == expected


def test_midnight_tie_protects_lowest_slot():
    instance, flows, dropped, config = _midnight_tie()
    table = a.PlacementTable(instance)
    drops = ((0, 2), (0, 23), (1, 22), (0, 1), (0, 22), (1, 1))
    assert scr._select_drops(table, flows, table.live(dropped), config) == drops
