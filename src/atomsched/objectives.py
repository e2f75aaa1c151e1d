"""Cost and peak-to-average objectives, plus derivatives of the cost.

The energy cost is quadratic per slot: ``sum_h a_h * load_h**2`` (cents).
PAR is the dimensionless peak-to-average ratio
``horizon * max_h load_h / total_energy``; a perfectly flat profile scores 1.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import InvalidInstanceError
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
    return loads.shape[-1] * loads.max(axis=-1) / total_energy


def energy_cost(loads: np.ndarray, coefficients: np.ndarray) -> float:
    """Total cost in cents of a load profile under quadratic slot pricing.

    The terms are added slot by slot from slot 0 (:func:`score_loads`), an
    order no BLAS kernel can change, so SCR's upper bound and the oracle's
    optimum agree bit for bit whenever they name the same schedule.
    """
    loads = np.asarray(loads, dtype=np.float64)
    coefficients = np.asarray(coefficients, dtype=np.float64)
    if loads.shape != coefficients.shape:
        raise InvalidInstanceError(
            f"load profile has {loads.shape[0]} slots but there are "
            f"{coefficients.shape[0]} cost coefficients"
        )
    return float(score_loads(ObjectiveKind.COST, loads, coefficients, None))


def par(loads: np.ndarray, total_energy: float, horizon: int) -> float:
    """Peak-to-average ratio of a load profile.

    ``total_energy`` is the daily energy of all users (kWh), which is fixed by
    the instance, so PAR and peak load are equivalent objectives. It must be
    finite and > 0, and ``horizon`` must be the profile's slot count.
    """
    if not 0.0 < total_energy < np.inf:
        raise InvalidInstanceError(f"total energy must be finite and > 0, got {total_energy!r}")
    loads = np.asarray(loads, dtype=np.float64)
    if loads.shape != (horizon,):
        raise InvalidInstanceError(f"load profile has shape {loads.shape}, horizon {horizon}")
    return float(score_loads(ObjectiveKind.PAR, loads, None, total_energy))


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
