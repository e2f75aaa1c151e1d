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

:func:`solve_relaxed` builds either problem, makes the one call to the
interior-point solver, and unpacks and checks the flows it returns.
The value it reports is the solver's own objective at the returned point: the
QP's cost, or the LP's peak variable, which is the whole of its objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection

import numpy as np

from .errors import InvalidInstanceError, SolverError
from .flows import PlacementTable, check_flows
from .ipm import solve_standard_form
from .model import ProblemInstance, instance_total_energy
from .objectives import ObjectiveKind

#: Feasibility tolerance applied to solver output (vs. the 1e-9 used for
#: exact, hand-built flow matrices).
SOLUTION_FEASIBILITY_TOL = 1e-6


@dataclass(frozen=True)
class RelaxedSolution:
    """Optimal relaxed flows plus the solver's reported objective.

    objective_value is in cents for the cost relaxation and in kWh (the peak
    load) for the PAR relaxation.
    """

    flows: np.ndarray = field(repr=False)
    objective_value: float
    iterations: int


def solve_relaxed(
    instance: ProblemInstance,
    objective: ObjectiveKind,
    dropped: Collection[tuple[int, int]] = (),
    table: PlacementTable | None = None,
) -> RelaxedSolution:
    """Solve the cost QP or the peak LP (value: its peak variable, kWh) over the
    columns live under ``dropped``; SCR passes in its ``table`` to skip rebuilding it."""
    if not isinstance(objective, ObjectiveKind):
        raise ValueError(f"unknown objective {objective!r}")
    table = PlacementTable(instance) if table is None else table.check_instance(instance)
    live = table.live(dropped)
    users, starts = table.users[live], table.starts[live]
    per_user = np.bincount(users, minlength=instance.n_users)
    if not per_user.all():
        raise InvalidInstanceError(
            f"user {int(np.argmin(per_user))} has no undropped start left"
        )
    m, horizon = len(users), instance.horizon
    loads_of = np.ascontiguousarray(table.rows[live].T)
    feasible, weights = table.feasible, table.coefficients
    del table  # free the full rows if built here: the solve needs only the live ones
    x0 = 1.0 / per_user[users]
    if objective is ObjectiveKind.COST:
        problem = dict(quad_factor=loads_of, quad_weights=weights,
                       linear=None, coupling=None)
    else:
        # variables: [flows (m), peak (1), slacks (horizon)]; the load rows
        # loads - peak + slack = 0 couple them, the flows alone form the groups
        linear = np.zeros(m + 1 + horizon)
        linear[m] = 1.0
        loads0 = loads_of @ x0
        peak0 = float(loads0.max()) + 1.0
        x0 = np.concatenate([x0, [peak0], peak0 - loads0])
        coupling = np.zeros((horizon, m + 1 + horizon))
        coupling[:, :m], coupling[:, m] = loads_of, -1.0
        np.fill_diagonal(coupling[:, m + 1:], 1.0)
        problem = dict(quad_factor=None, quad_weights=None, linear=linear,
                       coupling=coupling)
    result = solve_standard_form(**problem, group_sizes=per_user, x0=x0)
    if result.status != "optimal":
        raise SolverError(
            f"relaxed solve failed ({result.status}) after {result.iterations} iterations"
        )
    flows = np.zeros(feasible.shape)
    flows[users, starts] = result.x[:m]
    try:
        check_flows(flows, feasible, SOLUTION_FEASIBILITY_TOL)
    except Exception as exc:
        raise SolverError(f"solver returned infeasible flows: {exc}") from exc
    flows.setflags(write=False)
    return RelaxedSolution(flows=flows, objective_value=result.objective,
                           iterations=result.iterations)


def par_ratio_from_peak(instance: ProblemInstance, peak: float) -> float:
    """Convert a peak load in kWh to the dimensionless PAR ratio."""
    return instance.horizon * peak / instance_total_energy(instance)
