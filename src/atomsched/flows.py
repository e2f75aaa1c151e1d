"""Flow configurations over start slots, and their placement table.

A flow configuration is an ``(n_users, horizon)`` float matrix whose entry
``(n, s)`` is the flow user n sends on the start slot s. A Boolean (one-hot)
row encodes a concrete schedule; fractional rows arise only inside the convex
relaxation. Relaxed feasibility requires each row to be a probability vector
supported on the user's feasible start set.

The flow variables are the feasible (user, start) pairs. One
:class:`PlacementTable`, built per call and shared by every layer, is the
only map from a pair to its column, and its load row per column is the one
source of every "place user n's pattern at start s" result: a schedule's
load is :meth:`PlacementTable.schedule_loads`, a flow matrix's is
:meth:`PlacementTable.flow_loads` after :func:`check_flows`.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import Collection, Sequence

import numpy as np

from .errors import InfeasibleFlowError, InvalidInstanceError
from .model import ProblemInstance, instance_total_energy, start_sets

#: Absolute tolerance for row sums and out-of-window zeros. Interior-point
#: output is never exactly feasible; callers validating solver output pass a
#: looser value.
FEASIBILITY_TOL = 1e-9
#: distance from 1 and from 0 within which a flow row counts as one-hot
INTEGRAL_TOL = 1e-6


def one_hot_rows(flows: np.ndarray) -> np.ndarray:
    """Per row: one entry >= 1 - INTEGRAL_TOL and every other <= INTEGRAL_TOL."""
    top_two = np.partition(flows, -2, axis=1)[:, -2:]
    return (top_two[:, 1] >= 1.0 - INTEGRAL_TOL) & (top_two[:, 0] <= INTEGRAL_TOL)


class PlacementTable:
    """The flow-variable columns of one instance and their load rows.

    Column k is the pair ``(users[k], starts[k])``, user by user in window
    order, and ``feasible`` is the same pairs as an ``(n_users, horizon)``
    mask; :meth:`live` and :meth:`schedule_columns` map pairs back to k.
    ``rows`` is ``(m, horizon)``: row k is the per-slot load of the user's
    pattern at that start (wrapping modulo the horizon). User n's rows, in
    window order, are ``rows[heads[n] : heads[n] + radices[n]]``
    (:meth:`user_rows`). The table also carries the cost coefficients as an
    array and the instance's total energy.
    """

    def __init__(self, instance: ProblemInstance):
        horizon = instance.horizon
        self.start_sets = start_sets(instance)
        self.radices = np.array([len(starts) for starts in self.start_sets])
        self.heads = np.cumsum(self.radices) - self.radices
        self.users = np.repeat(np.arange(instance.n_users), self.radices)
        self.starts = np.concatenate(self.start_sets).astype(np.intp)
        self.feasible = np.zeros((instance.n_users, horizon), dtype=bool)
        self.feasible[self.users, self.starts] = True
        self.instance = instance
        self._padded = np.zeros((instance.n_users, horizon))
        for n, appliance in enumerate(instance.appliances):
            self._padded[n, : appliance.duration] = appliance.energy_pattern
        # pattern_n[(h - s) % horizon] = padded[n, offsets[s, h]]
        self._offsets = (np.arange(horizon)[None, :] - np.arange(horizon)[:, None]) % horizon
        self.rows = self._padded[self.users[:, None], self._offsets[self.starts]]
        self.coefficients = np.asarray(instance.cost_coefficients)
        self.total_energy = instance_total_energy(instance)

    @cached_property
    def _index(self) -> dict[tuple[int, int], int]:
        # built on first lookup: a relaxed solve with no drops never needs it
        pairs = zip(self.users.tolist(), self.starts.tolist())
        return {pair: column for column, pair in enumerate(pairs)}

    def _column(self, pair) -> int | None:
        """Column of the ``(user, start)`` pair, or None for any pair that
        names no flow variable, malformed and non-integer pairs included."""
        try:
            n, s = pair
            return self._index.get((operator.index(n), operator.index(s)))
        except (TypeError, ValueError):
            return None

    def check_instance(self, instance: ProblemInstance) -> PlacementTable:
        """This table, if it was built for ``instance``; else InvalidInstanceError."""
        if self.instance != instance:
            raise InvalidInstanceError("the placement table was built for another instance")
        return self

    def user_rows(self) -> list[np.ndarray]:
        """Each user's rows in window order, as views of ``rows``."""
        return [self.rows[h : h + r] for h, r in zip(self.heads, self.radices)]

    def rows_at_every_start(self) -> np.ndarray:
        """``(n_users, horizon, horizon)`` load rows at every start, feasible
        or not, for the cost derivatives; built on each call."""
        return self._padded[:, self._offsets]

    def live(self, dropped: Collection[tuple[int, int]]) -> np.ndarray:
        """Column mask of the flow variables left after ``dropped``; raises
        InvalidInstanceError for the first pair that does not name a flow
        variable."""
        keep = np.ones(len(self.users), dtype=bool)
        for pair in dropped:
            column = self._column(pair)
            if column is None:
                raise InvalidInstanceError(
                    f"drop {pair!r} does not name a feasible start variable"
                )
            keep[column] = False
        return keep

    def schedule_columns(self, schedule: Sequence[int]) -> np.ndarray:
        """Column of each user's start; raises InfeasibleFlowError for the
        wrong number of starts or for the first start that is no flow variable."""
        starts = tuple(schedule)
        if len(starts) != self.instance.n_users:
            raise InfeasibleFlowError(
                f"schedule has {len(starts)} starts for {self.instance.n_users} users"
            )
        columns = [self._column(pair) for pair in enumerate(starts)]
        if None in columns:
            n = columns.index(None)
            raise InfeasibleFlowError(
                f"user {n} ({self.instance.appliances[n].name}): start {starts[n]} not in "
                f"feasible start set {np.flatnonzero(self.feasible[n]).tolist()}"
            )
        return np.array(columns, dtype=np.intp)

    def flow_loads(self, flows: np.ndarray) -> np.ndarray:
        """Per-slot load of a flow matrix; only in-window entries count."""
        return flows[self.users, self.starts] @ self.rows

    def schedule_loads(self, schedule: Sequence[int]) -> np.ndarray:
        """Per-slot load of one start per user, summed in user order; an
        infeasible schedule raises InfeasibleFlowError."""
        return self.rows[self.schedule_columns(schedule)].sum(axis=0)


def check_flows(flows: np.ndarray, feasible: np.ndarray, tol: float) -> np.ndarray:
    """Validate relaxed feasibility against a feasible mask, such as a
    table's, and return the matrix as floats.

    Raises InfeasibleFlowError for a matrix of another shape or with
    non-finite entries, and else for the first user whose row has, checked in
    this order, an entry above ``tol`` outside the feasible start set, an
    entry outside [0, 1] by more than ``tol``, or a sum off 1 by more than ``tol``.
    """
    f = np.asarray(flows, dtype=np.float64)
    if f.shape != feasible.shape:
        raise InfeasibleFlowError(f"flow matrix shape {f.shape}, expected {feasible.shape}")
    if not np.all(np.isfinite(f)):
        raise InfeasibleFlowError("flow matrix contains non-finite entries")
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
            f"nonzero flow {float(f[n, s])!r} at start {s} outside the feasible start set",
            f"flow entries outside [0, 1] (min {float(low[n])!r}, max {float(high[n])!r})",
            f"row sums to {float(totals[n])!r}, expected 1",
        )
        raise InfeasibleFlowError(f"user {n}: {messages[int(np.argmax(failed[:, n]))]}")
    return f
