"""Convex relaxations of the scheduling problem, honoring a set of dropped
start variables.

The Boolean constraint (one-hot start per user) is relaxed to a probability
row supported on the feasible start set. Cost minimization becomes a convex
QP; peak minimization becomes an LP via an auxiliary peak variable bounded
below by every slot load. Only the flow columns live under the drop set
(``PlacementTable.live``) are variables, in layout order; the rest are
eliminated before the solve rather than pinned to zero. The layout keeps each
user's columns contiguous, so they are the solver's simplex groups, which its
Newton step eliminates in closed form; the PAR LP's slot-load rows are its only
dense rows, with the peak and slack columns in no group.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Collection

import numpy as np

from .errors import InvalidInstanceError, SolverError
from .flows import PlacementTable, check_flows
from .ipm import solve_standard_form
from .model import ProblemInstance, instance_total_energy
from .objectives import ObjectiveKind

#: Solver output within this distance outside [0, 1] is clamped onto the box
#: before feasibility validation.
CLAMP_TOL = 1e-9
#: Feasibility tolerance applied to solver output (vs. the 1e-9 used for
#: exact, hand-built flow matrices).
SOLUTION_FEASIBILITY_TOL = 1e-6


def check_count(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer >= 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class SolverSettings:
    tolerance: float = 1e-8
    max_solver_iterations: int = 200

    def __post_init__(self):
        if not 0.0 < self.tolerance < np.inf:
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance!r}")
        check_count("max_solver_iterations", self.max_solver_iterations)


DEFAULT_SETTINGS = SolverSettings()


@dataclass(frozen=True)
class RelaxedSolution:
    """Optimal relaxed flows plus the solver's reported objective.

    objective_value is in cents for the cost relaxation and in kWh (the peak
    load) for the PAR relaxation.
    """

    flows: np.ndarray = field(repr=False)
    objective_value: float
    iterations: int


class _Packing:
    """The table's live flow columns, in layout order, as the solver's arrays."""

    def __init__(self, instance: ProblemInstance, dropped: Collection[tuple[int, int]]):
        table = PlacementTable(instance)
        live = table.live(dropped)
        self.users, self.starts = table.users[live], table.starts[live]
        self.feasible = table.feasible
        self.per_user = np.bincount(self.users, minlength=instance.n_users)
        if not self.per_user.all():
            raise InvalidInstanceError(
                f"user {int(np.argmin(self.per_user))} has no undropped start left"
            )
        self.n_var = len(self.users)
        self.loads_of = np.ascontiguousarray(table.rows[live].T)

    def uniform_start(self) -> np.ndarray:
        return 1.0 / self.per_user[self.users]

    def unpack(self, x: np.ndarray) -> np.ndarray:
        flows = np.zeros(self.feasible.shape)
        flows[self.users, self.starts] = x
        np.copyto(flows, 0.0, where=(flows < 0.0) & (flows >= -CLAMP_TOL))
        np.copyto(flows, 1.0, where=(flows > 1.0) & (flows <= 1.0 + CLAMP_TOL))
        return flows


def _finish(packing, result, objective_value) -> RelaxedSolution:
    if result.status != "optimal":
        raise SolverError(
            f"relaxed solve failed ({result.status}) after {result.iterations} iterations"
        )
    flows = packing.unpack(result.x[: packing.n_var])
    try:
        check_flows(flows, packing.feasible, SOLUTION_FEASIBILITY_TOL)
    except Exception as exc:
        raise SolverError(f"solver returned infeasible flows: {exc}") from exc
    flows.setflags(write=False)
    return RelaxedSolution(
        flows=flows,
        objective_value=float(objective_value),
        iterations=result.iterations,
    )


def solve_relaxed_cost(
    instance: ProblemInstance,
    dropped: Collection[tuple[int, int]] = (),
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> RelaxedSolution:
    """Minimize the quadratic energy cost over the relaxed flow polytope."""
    packing = _Packing(instance, dropped)
    weights = np.asarray(instance.cost_coefficients)
    result = solve_standard_form(
        quad_factor=packing.loads_of,
        quad_weights=weights,
        linear=None,
        group_sizes=packing.per_user,
        coupling=None,
        coupling_rhs=None,
        x0=packing.uniform_start(),
        tolerance=settings.tolerance,
        max_iterations=settings.max_solver_iterations,
    )
    loads = packing.loads_of @ result.x
    return _finish(packing, result, float(weights @ (loads * loads)))


def solve_relaxed_par(
    instance: ProblemInstance,
    dropped: Collection[tuple[int, int]] = (),
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> RelaxedSolution:
    """Minimize the peak slot load over the relaxed flow polytope.

    Returns the auxiliary peak variable (kWh) as objective_value; divide by
    the average load to obtain the PAR ratio. The peak variable itself is
    never part of any drop set.
    """
    packing = _Packing(instance, dropped)
    horizon = instance.horizon
    m = packing.n_var
    # variables: [flows (m), peak (1), slacks (horizon)]; the load rows
    # loads - peak + slack = 0 couple them, the flows alone form the groups
    n_var = m + 1 + horizon
    load_rows = np.hstack(
        [packing.loads_of, np.full((horizon, 1), -1.0), np.eye(horizon)]
    )
    cost = np.zeros(n_var)
    cost[m] = 1.0

    x0 = np.empty(n_var)
    x0[:m] = packing.uniform_start()
    loads0 = packing.loads_of @ x0[:m]
    x0[m] = float(loads0.max()) + 1.0
    x0[m + 1 :] = x0[m] - loads0

    result = solve_standard_form(
        quad_factor=None,
        quad_weights=None,
        linear=cost,
        group_sizes=packing.per_user,
        coupling=load_rows,
        coupling_rhs=np.zeros(horizon),
        x0=x0,
        tolerance=settings.tolerance,
        max_iterations=settings.max_solver_iterations,
    )
    return _finish(packing, result, float(result.x[m]))


def solve_relaxed(
    instance: ProblemInstance,
    objective: ObjectiveKind,
    dropped: Collection[tuple[int, int]] = (),
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> RelaxedSolution:
    if objective is ObjectiveKind.COST:
        return solve_relaxed_cost(instance, dropped, settings)
    if objective is ObjectiveKind.PAR:
        return solve_relaxed_par(instance, dropped, settings)
    raise ValueError(f"unknown objective {objective!r}")


def par_ratio_from_peak(instance: ProblemInstance, peak: float) -> float:
    """Convert a peak load in kWh to the dimensionless PAR ratio."""
    return instance.horizon * peak / instance_total_energy(instance)
