"""Flow configurations over start slots, and load-profile evaluation.

A flow configuration is an ``(n_users, horizon)`` float matrix whose entry
``(n, s)`` is the flow user n sends on the start slot s. A Boolean (one-hot)
row encodes a concrete schedule; fractional rows arise only inside the convex
relaxation. Relaxed feasibility requires each row to be a probability vector
supported on the user's feasible start set.

Every "place user n's pattern at start s" result comes from one
:class:`PlacementTable`, built per call and shared by the load profiles, the
cost derivatives, the relaxation's packing and SCR's polish.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InfeasibleFlowError, NotIntegralError
from .model import ProblemInstance, instance_total_energy, start_sets

#: Absolute tolerance for row sums and out-of-window zeros. Interior-point
#: output is never exactly feasible; callers validating solver output pass a
#: looser value.
FEASIBILITY_TOL = 1e-9


class PlacementTable:
    """Load rows of every (user, start) placement of one instance.

    ``rows[n, s]`` is the per-slot load of user n's pattern started at slot s
    (wrapping modulo the horizon), for every s, feasible or not; ``users`` and
    ``starts`` list the feasible pairs, user by user in window order, so
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
        self.users = np.repeat(
            np.arange(instance.n_users), [len(s) for s in self.start_sets]
        )
        self.starts = np.concatenate(self.start_sets).astype(np.intp)
        self.coefficients = np.asarray(instance.cost_coefficients)
        self.total_energy = instance_total_energy(instance)

    def flow_loads(self, flows: np.ndarray) -> np.ndarray:
        """Per-slot load of a flow matrix; only in-window entries count."""
        return flows[self.users, self.starts] @ self.rows[self.users, self.starts]

    def schedule_loads(self, starts: Sequence[int]) -> np.ndarray:
        """Per-slot load of one start per user, summed in user order."""
        return self.rows[np.arange(len(starts)), list(starts)].sum(axis=0)


def validate_schedule(instance: ProblemInstance, schedule: Sequence[int]) -> tuple[int, ...]:
    """Check one start per user, each inside its feasible start set."""
    starts = tuple(int(s) for s in schedule)
    sets_ = start_sets(instance)
    if len(starts) != instance.n_users:
        raise InfeasibleFlowError(
            f"schedule has {len(starts)} starts for {instance.n_users} users"
        )
    for n, s in enumerate(starts):
        if s not in sets_[n]:
            raise InfeasibleFlowError(
                f"user {n} ({instance.appliances[n].name}): start {s} not in "
                f"feasible start set {sorted(sets_[n])}"
            )
    return starts


def validate_flows(
    instance: ProblemInstance,
    flows: np.ndarray,
    tol: float = FEASIBILITY_TOL,
    boolean: bool = False,
) -> np.ndarray:
    """Validate relaxed feasibility (optionally Boolean) and return the matrix.

    Raises InfeasibleFlowError when a row sum differs from 1 by more than
    ``tol``, an entry outside the feasible start set exceeds ``tol``, an entry
    leaves [0, 1] by more than ``tol``, or (with ``boolean=True``) an entry is
    further than ``tol`` from {0, 1}.
    """
    f = np.asarray(flows, dtype=np.float64)
    n_users, horizon = instance.n_users, instance.horizon
    if f.shape != (n_users, horizon):
        raise InfeasibleFlowError(
            f"flow matrix shape {f.shape}, expected {(n_users, horizon)}"
        )
    if not np.all(np.isfinite(f)):
        raise InfeasibleFlowError("flow matrix contains non-finite entries")
    sets_ = start_sets(instance)
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
        if boolean:
            dist = np.minimum(np.abs(row), np.abs(row - 1.0)).max()
            if dist > tol:
                raise InfeasibleFlowError(
                    f"user {n}: row is not 0/1-valued (max deviation {dist!r})"
                )
    return f


def schedule_to_flows(instance: ProblemInstance, schedule: Sequence[int]) -> np.ndarray:
    """One-hot flow matrix for a feasible schedule."""
    starts = validate_schedule(instance, schedule)
    f = np.zeros((instance.n_users, instance.horizon))
    for n, s in enumerate(starts):
        f[n, s] = 1.0
    return f


def flows_to_schedule(
    instance: ProblemInstance, flows: np.ndarray, integral_tol: float = 1e-6
) -> tuple[int, ...]:
    """Recover the schedule from a (near-)Boolean flow matrix.

    Each row must have one entry >= 1 - integral_tol with all others
    <= integral_tol; otherwise NotIntegralError reports the first fractional
    row.
    """
    f = np.asarray(flows, dtype=np.float64)
    sets_ = start_sets(instance)
    starts = []
    for n in range(instance.n_users):
        row = f[n]
        s = int(np.argmax(row))
        rest = np.delete(row, s)
        if row[s] < 1.0 - integral_tol or (rest.size and rest.max() > integral_tol):
            raise NotIntegralError(
                n, f"user {n}: row is fractional (max entry {row[s]!r} at start {s})"
            )
        if s not in sets_[n]:
            raise InfeasibleFlowError(
                f"user {n}: integral flow sits at infeasible start {s}"
            )
        starts.append(s)
    return tuple(starts)


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
