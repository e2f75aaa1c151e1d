"""Flow configurations over start slots, and load-profile evaluation.

A flow configuration is an ``(n_users, horizon)`` float matrix whose entry
``(n, s)`` is the flow user n sends on the start slot s. A Boolean (one-hot)
row encodes a concrete schedule; fractional rows arise only inside the convex
relaxation. Relaxed feasibility requires each row to be a probability vector
supported on the user's feasible start set.

The flow variables are the feasible (user, start) pairs in one column layout,
:func:`flow_columns`; :meth:`PlacementTable.live` masks out a drop set. Every
"place user n's pattern at start s" result comes from one
:class:`PlacementTable`, built per call and shared by every layer.
"""

from __future__ import annotations

import operator
from typing import Collection, Sequence

import numpy as np

from .errors import InfeasibleFlowError, InvalidInstanceError, NotIntegralError
from .model import ProblemInstance, instance_total_energy, start_sets

#: Absolute tolerance for row sums and out-of-window zeros. Interior-point
#: output is never exactly feasible; callers validating solver output pass a
#: looser value.
FEASIBILITY_TOL = 1e-9
#: distance from 1 and from 0 within which a flow row counts as one-hot
INTEGRAL_TOL = 1e-6


def flow_columns(instance: ProblemInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(users, starts, feasible)``: one column per flow variable, user by
    user in window order, and the same pairs as an ``(n_users, horizon)`` mask."""
    sets_ = start_sets(instance)
    users = np.repeat(np.arange(instance.n_users), [len(s) for s in sets_])
    starts = np.concatenate(sets_).astype(np.intp)
    feasible = np.zeros((instance.n_users, instance.horizon), dtype=bool)
    feasible[users, starts] = True
    return users, starts, feasible


def one_hot_rows(flows: np.ndarray) -> np.ndarray:
    """Per row: one entry >= 1 - INTEGRAL_TOL and every other <= INTEGRAL_TOL."""
    top_two = np.partition(flows, -2, axis=1)[:, -2:]
    return (top_two[:, 1] >= 1.0 - INTEGRAL_TOL) & (top_two[:, 0] <= INTEGRAL_TOL)


class PlacementTable:
    """Load rows of every (user, start) placement of one instance.

    ``rows[n, s]`` is the per-slot load of user n's pattern started at slot s
    (wrapping modulo the horizon), for every s, feasible or not; ``users``,
    ``starts`` and ``feasible`` are the instance's :func:`flow_columns`, so
    ``rows[users, starts]`` holds one row per flow variable. The table also
    carries the cost coefficients as an array and the instance's total energy.
    """

    def __init__(self, instance: ProblemInstance):
        horizon = instance.horizon
        self.start_sets = start_sets(instance)
        padded = np.zeros((instance.n_users, horizon))
        for n, appliance in enumerate(instance.appliances):
            padded[n, : appliance.duration] = appliance.energy_pattern
        # rows[n, s, h] = pattern_n[(h - s) % horizon]
        offsets = (np.arange(horizon)[None, :] - np.arange(horizon)[:, None]) % horizon
        self.rows = padded[:, offsets]
        self.users, self.starts, self.feasible = flow_columns(instance)
        # column of each (user, start) pair, -1 where it names none, with one
        # row and one column of padding for every pair out of range
        self._bounds = np.array([[instance.n_users], [horizon]], dtype=np.uintp)
        self._columns = np.full((instance.n_users + 1, horizon + 1), -1)
        self._columns[self.users, self.starts] = np.arange(len(self.users))
        self.coefficients = np.asarray(instance.cost_coefficients)
        self.total_energy = instance_total_energy(instance)

    def live(self, dropped: Collection[tuple[int, int]]) -> np.ndarray:
        """Column mask of the flow variables left after ``dropped``; raises
        InvalidInstanceError for the first pair that does not name a flow
        variable."""
        pairs = list(dropped)
        index = np.asarray(pairs) if pairs else np.empty((0, 2), dtype=np.intp)
        if index.dtype.kind not in "iu" or index.shape[1:] != (2,):
            # not all machine-integer pairs: check each pair on its own
            index = np.array([
                [operator.index(n), operator.index(s)]
                if _is_flow_variable(self.feasible, n, s) else [-1, -1]
                for n, s in pairs
            ], dtype=np.intp)
        # negative entries wrap to huge unsigned ones; all out-of-range pairs
        # land on the padding, which names no column
        n, s = np.minimum(index.astype(np.uintp).T, self._bounds)
        columns = self._columns[n, s]
        if columns.min(initial=0) < 0:
            n, s = pairs[int(np.argmin(columns))]
            raise InvalidInstanceError(
                f"drop ({n}, {s}) does not name a feasible start variable"
            )
        keep = np.ones(len(self.users), dtype=bool)
        keep[columns] = False
        return keep

    def flow_loads(self, flows: np.ndarray) -> np.ndarray:
        """Per-slot load of a flow matrix; only in-window entries count."""
        return flows[self.users, self.starts] @ self.rows[self.users, self.starts]

    def schedule_loads(self, starts: Sequence[int]) -> np.ndarray:
        """Per-slot load of one start per user, summed in user order."""
        return self.rows[np.arange(len(starts)), list(starts)].sum(axis=0)


def _is_flow_variable(feasible: np.ndarray, n, s) -> bool:
    try:
        n, s = operator.index(n), operator.index(s)
    except TypeError:
        return False
    return 0 <= n < feasible.shape[0] and 0 <= s < feasible.shape[1] and feasible[n, s]


def validate_schedule(instance: ProblemInstance, schedule: Sequence[int]) -> tuple[int, ...]:
    """Check one integer start per user, each inside its feasible start set."""
    starts = tuple(schedule)
    if len(starts) != instance.n_users:
        raise InfeasibleFlowError(
            f"schedule has {len(starts)} starts for {instance.n_users} users"
        )
    feasible = flow_columns(instance)[2]
    for n, s in enumerate(starts):
        if not _is_flow_variable(feasible, n, s):
            raise InfeasibleFlowError(
                f"user {n} ({instance.appliances[n].name}): start {s} not in "
                f"feasible start set {np.flatnonzero(feasible[n]).tolist()}"
            )
    return tuple(map(int, starts))


def _flow_matrix(instance: ProblemInstance, flows: np.ndarray) -> np.ndarray:
    f = np.asarray(flows, dtype=np.float64)
    shape = (instance.n_users, instance.horizon)
    if f.shape != shape:
        raise InfeasibleFlowError(f"flow matrix shape {f.shape}, expected {shape}")
    if not np.all(np.isfinite(f)):
        raise InfeasibleFlowError("flow matrix contains non-finite entries")
    return f


def validate_flows(
    instance: ProblemInstance, flows: np.ndarray, tol: float = FEASIBILITY_TOL
) -> np.ndarray:
    """Validate relaxed feasibility and return the matrix.

    Raises InfeasibleFlowError for the first user whose row has, checked in
    this order, an entry above ``tol`` outside the feasible start set, an
    entry outside [0, 1] by more than ``tol``, or a sum off 1 by more than ``tol``.
    """
    f = _flow_matrix(instance, flows)
    feasible = flow_columns(instance)[2]
    outside = np.where(feasible, 0.0, np.abs(f))
    low, high = f.min(axis=1), f.max(axis=1)
    totals = np.where(feasible, f, 0.0).sum(axis=1)
    failed = np.stack([
        outside.max(axis=1) > tol,
        (low < -tol) | (high > 1.0 + tol),
        np.abs(totals - 1.0) > tol,
    ])
    if failed.any():
        n = int(np.argmax(failed.any(axis=0)))
        s = int(np.argmax(outside[n]))
        messages = (
            f"nonzero flow {f[n, s]!r} at start {s} outside the feasible start set",
            f"flow entries outside [0, 1] (min {low[n]!r}, max {high[n]!r})",
            f"row sums to {float(totals[n])!r}, expected 1",
        )
        raise InfeasibleFlowError(f"user {n}: {messages[int(np.argmax(failed[:, n]))]}")
    return f


def schedule_to_flows(instance: ProblemInstance, schedule: Sequence[int]) -> np.ndarray:
    """One-hot flow matrix for a feasible schedule."""
    starts = validate_schedule(instance, schedule)
    f = np.zeros((instance.n_users, instance.horizon))
    f[np.arange(instance.n_users), starts] = 1.0
    return f


def flows_to_schedule(instance: ProblemInstance, flows: np.ndarray) -> tuple[int, ...]:
    """Recover the schedule from a (near-)Boolean flow matrix.

    The first user whose row is not one-hot at a feasible start raises
    NotIntegralError if the row is fractional, else InfeasibleFlowError.
    """
    f = _flow_matrix(instance, flows)
    starts = f.argmax(axis=1)
    one_hot = one_hot_rows(f)
    failed = ~(one_hot & flow_columns(instance)[2][np.arange(len(f)), starts])
    if failed.any():
        n = int(np.argmax(failed))
        s = int(starts[n])
        if not one_hot[n]:
            raise NotIntegralError(
                n, f"user {n}: row is fractional (max entry {f[n, s]!r} at start {s})"
            )
        raise InfeasibleFlowError(f"user {n}: integral flow sits at infeasible start {s}")
    return tuple(starts.tolist())


def load_profile(
    instance: ProblemInstance, flows: np.ndarray, tol: float = FEASIBILITY_TOL
) -> np.ndarray:
    """Per-slot total load (kWh) induced by a relaxed-feasible flow matrix.

    Each unit of flow at (n, s) deposits the user's energy pattern on the
    ``duration`` slots starting at s (wrapping modulo the horizon).
    """
    return PlacementTable(instance).flow_loads(validate_flows(instance, flows, tol=tol))


def load_profile_from_schedule(
    instance: ProblemInstance, schedule: Sequence[int]
) -> np.ndarray:
    """Per-slot total load for a concrete schedule (one start per user)."""
    starts = validate_schedule(instance, schedule)
    return PlacementTable(instance).schedule_loads(starts)
