"""Convex relaxations of the scheduling problem, honoring a set of dropped
start variables.

The Boolean constraint (one-hot start per user) is relaxed to a probability
row supported on the feasible start set. Cost minimization becomes a convex
QP; peak minimization becomes an LP via an auxiliary peak variable bounded
below by every slot load. Variables at infeasible starts, and variables in
the drop set, are eliminated before the solve rather than pinned to zero.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Collection

import numpy as np

from .errors import InvalidInstanceError, SolverError
from .flows import PlacementTable, validate_flows
from .ipm import solve_standard_form
from .model import ProblemInstance, instance_total_energy
from .objectives import ObjectiveKind

#: Solver output within this distance outside [0, 1] is clamped onto the box
#: before feasibility validation.
CLAMP_TOL = 1e-9
#: Feasibility tolerance applied to solver output (vs. the 1e-9 used for
#: exact, hand-built flow matrices).
SOLUTION_FEASIBILITY_TOL = 1e-6


class SolverStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class SolverSettings:
    tolerance: float = 1e-8
    max_solver_iterations: int = 200
    #: "interior-point" is the reference backend for both objectives;
    #: "highs" delegates the peak LP to scipy's linprog.
    backend: str = "interior-point"

    def __post_init__(self):
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be > 0")
        if self.backend not in ("interior-point", "highs"):
            raise ValueError(f"unknown backend {self.backend!r}")


DEFAULT_SETTINGS = SolverSettings()


@dataclass(frozen=True)
class RelaxedSolution:
    """Optimal relaxed flows plus the solver's reported objective.

    objective_value is in cents for the cost relaxation and in kWh (the peak
    load) for the PAR relaxation.
    """

    flows: np.ndarray = field(repr=False)
    objective_value: float
    solver_status: SolverStatus
    iterations: int


class _Packing:
    """Column layout for the undropped, in-window flow variables: one column
    per (user, start), user by user in window order."""

    def __init__(self, instance: ProblemInstance, dropped: Collection[tuple[int, int]]):
        table = PlacementTable(instance)
        dropped = frozenset((int(n), int(s)) for n, s in dropped)
        for n, s in dropped:
            if not 0 <= n < instance.n_users or s not in table.start_sets[n]:
                raise InvalidInstanceError(
                    f"drop ({n}, {s}) does not name a feasible start variable"
                )
        pairs = zip(table.users.tolist(), table.starts.tolist())
        live = np.array([pair not in dropped for pair in pairs])
        self.users, self.starts = table.users[live], table.starts[live]
        self.per_user = np.bincount(self.users, minlength=instance.n_users)
        if not self.per_user.all():
            raise InvalidInstanceError(
                f"user {int(np.argmin(self.per_user))} has no undropped start left"
            )
        self.n_var = len(self.users)
        self.loads_of = np.ascontiguousarray(table.rows[self.users, self.starts].T)
        self.simplex = np.zeros((instance.n_users, self.n_var))
        self.simplex[self.users, np.arange(self.n_var)] = 1.0

    def uniform_start(self) -> np.ndarray:
        return 1.0 / self.per_user[self.users]

    def unpack(self, instance: ProblemInstance, x: np.ndarray) -> np.ndarray:
        flows = np.zeros((instance.n_users, instance.horizon))
        flows[self.users, self.starts] = x
        np.copyto(flows, 0.0, where=(flows < 0.0) & (flows >= -CLAMP_TOL))
        np.copyto(flows, 1.0, where=(flows > 1.0) & (flows <= 1.0 + CLAMP_TOL))
        return flows


def _finish(instance, packing, result, objective_value) -> RelaxedSolution:
    if result.status != "optimal":
        raise SolverError(
            f"relaxed solve failed ({result.status}) after {result.iterations} iterations"
        )
    flows = packing.unpack(instance, result.x)
    try:
        validate_flows(instance, flows, tol=SOLUTION_FEASIBILITY_TOL)
    except Exception as exc:
        raise SolverError(f"solver returned infeasible flows: {exc}") from exc
    flows.setflags(write=False)
    return RelaxedSolution(
        flows=flows,
        objective_value=float(objective_value),
        solver_status=SolverStatus.OPTIMAL,
        iterations=result.iterations,
    )


def solve_relaxed_cost(
    instance: ProblemInstance,
    dropped: Collection[tuple[int, int]] = frozenset(),
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> RelaxedSolution:
    """Minimize the quadratic energy cost over the relaxed flow polytope."""
    if settings.backend != "interior-point":
        raise ValueError(
            f"backend {settings.backend!r} only supports the PAR relaxation"
        )
    packing = _Packing(instance, dropped)
    weights = np.asarray(instance.cost_coefficients)
    result = solve_standard_form(
        quad_factor=packing.loads_of,
        quad_weights=weights,
        linear=None,
        eq_matrix=packing.simplex,
        eq_rhs=np.ones(instance.n_users),
        x0=packing.uniform_start(),
        tolerance=settings.tolerance,
        max_iterations=settings.max_solver_iterations,
    )
    loads = packing.loads_of @ result.x
    return _finish(instance, packing, result, float(weights @ (loads * loads)))


def solve_relaxed_par(
    instance: ProblemInstance,
    dropped: Collection[tuple[int, int]] = frozenset(),
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> RelaxedSolution:
    """Minimize the peak slot load over the relaxed flow polytope.

    Returns the auxiliary peak variable (kWh) as objective_value; divide by
    the average load to obtain the PAR ratio. The peak variable itself is
    never part of any drop set.
    """
    packing = _Packing(instance, dropped)
    if settings.backend == "highs":
        return _solve_par_highs(instance, packing, settings)

    horizon = instance.horizon
    n_users = instance.n_users
    m = packing.n_var
    # variables: [flows (m), peak (1), slacks (horizon)]
    n_var = m + 1 + horizon
    eq = np.zeros((n_users + horizon, n_var))
    eq[:n_users, :m] = packing.simplex
    eq[n_users:, :m] = packing.loads_of
    eq[n_users:, m] = -1.0
    eq[n_users:, m + 1 :] = np.eye(horizon)
    rhs = np.concatenate([np.ones(n_users), np.zeros(horizon)])
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
        eq_matrix=eq,
        eq_rhs=rhs,
        x0=x0,
        tolerance=settings.tolerance,
        max_iterations=settings.max_solver_iterations,
    )
    peak = float(result.x[m])
    trimmed = _FlowView(result.x[:m], result.status, result.iterations)
    return _finish(instance, packing, trimmed, peak)


@dataclass(frozen=True)
class _FlowView:
    """Solver result restricted to the flow variables."""

    x: np.ndarray
    status: str
    iterations: int


def _solve_par_highs(instance, packing, settings) -> RelaxedSolution:
    from scipy.optimize import linprog

    horizon = instance.horizon
    m = packing.n_var
    cost = np.zeros(m + 1)
    cost[m] = 1.0
    # loads - peak <= 0 for every slot
    a_ub = np.hstack([packing.loads_of, -np.ones((horizon, 1))])
    a_eq = np.hstack([packing.simplex, np.zeros((instance.n_users, 1))])
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=np.zeros(horizon),
        A_eq=a_eq,
        b_eq=np.ones(instance.n_users),
        bounds=[(0.0, None)] * (m + 1),
        method="highs",
    )
    if not res.success:
        raise SolverError(f"highs backend failed: {res.message}")
    trimmed = _FlowView(np.asarray(res.x[:m]), "optimal", int(res.nit))
    return _finish(instance, packing, trimmed, float(res.x[m]))


def solve_relaxed(
    instance: ProblemInstance,
    objective: ObjectiveKind,
    dropped: Collection[tuple[int, int]] = frozenset(),
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
