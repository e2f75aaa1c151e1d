"""Cost and peak-to-average objectives, plus derivatives of the cost.

The energy cost is quadratic per slot: ``sum_h a_h * load_h**2`` (cents).
PAR is the dimensionless peak-to-average ratio
``horizon * max_h load_h / total_energy``; a perfectly flat profile scores 1.
"""

from __future__ import annotations

import enum

import numpy as np

from .flows import FEASIBILITY_TOL, PlacementTable, check_flows
from .model import ProblemInstance


class ObjectiveKind(enum.Enum):
    COST = "cost"
    PAR = "par"


def default_cost_coefficients(horizon: int = 24) -> tuple[float, ...]:
    """Two-tier quadratic price coefficients: 0.2 cent/kWh^2 during the night
    hours (before 8 AM), 0.3 during the day. Scales to non-hourly horizons by
    clock time."""
    return tuple(0.2 if (h * 24) // horizon < 8 else 0.3 for h in range(horizon))


def par_ratio(horizon: int, peak, total_energy):
    """``(horizon * peak) / total_energy``: every PAR value and PAR bound is
    computed here, so a bound rounds as the values it bounds."""
    return (horizon * peak) / total_energy


def score_loads(
    objective: ObjectiveKind,
    loads: np.ndarray,
    coefficients: np.ndarray,
    total_energy: float | None,
) -> np.ndarray:
    """Boolean objective of the load profiles along the last axis of ``loads``.

    Cost (which reads only ``coefficients``) adds ``a_h * load_h * load_h``
    slot by slot from slot 0, in an order no BLAS kernel picks; PAR (which
    reads only ``total_energy``) is ``horizon * peak / total_energy``. SCR and
    the oracle score every schedule here, so it has one value in both.
    """
    if objective is ObjectiveKind.COST:
        return np.add.accumulate(coefficients * loads * loads, axis=-1)[..., -1]
    return par_ratio(loads.shape[-1], loads.max(axis=-1), total_energy)


def cost_gradient(
    instance: ProblemInstance, flows: np.ndarray, tol: float = FEASIBILITY_TOL
) -> np.ndarray:
    """Gradient of the cost objective with respect to every flow variable.

    Entry (n, s) is ``2 * sum_d pattern_n[d] * a[(s+d) % H] * load[(s+d) % H]``
    over the operating offsets d. Entries at starts outside the feasible start
    set are computed by the same formula; the solver never uses them.
    """
    table = PlacementTable(instance)
    loads = table.flow_loads(check_flows(flows, table.feasible, tol))
    return 2.0 * (table.rows_at_every_start() @ (table.coefficients * loads))


def cost_hessian(instance: ProblemInstance) -> np.ndarray:
    """Hessian of the cost objective over all (user, start) variables.

    The objective is quadratic in the flows, so the Hessian is constant:
    ``2 * R @ diag(a) @ R.T`` with R the placement rows of every (user, start)
    pair. Rows and columns are indexed by ``n * horizon + s``.
    """
    table = PlacementTable(instance)
    rows = table.rows_at_every_start().reshape(-1, instance.horizon)
    return 2.0 * rows @ (table.coefficients[:, None] * rows.T)
