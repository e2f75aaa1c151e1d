"""Primal-dual interior-point solver for box-free standard-form problems.

Solves   minimize    sum_k w_k * (G x)_k^2  +  c . x
         subject to  A x = b,   x >= 0

with Mehrotra predictor-corrector steps. The quadratic part is supplied in
factored form (G, w), which keeps the Newton systems small: the objective's
Hessian is 2 G' diag(w) G, so the (Q + X^-1 Z) solves reduce via the
Woodbury identity to one dense system of size len(w) per iteration plus a
Schur complement of size n_constraints. Upper bounds x <= 1 are intentionally
not modeled; for per-user simplex rows they are implied by the equalities.

Both the quadratic cost relaxation and the peak-minimization LP (Q = 0) go
through this one entry point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_STEP_SCALE = 0.9995  # fraction of the distance to the boundary taken per step


@dataclass(frozen=True)
class IpmResult:
    x: np.ndarray
    eq_duals: np.ndarray
    bound_duals: np.ndarray
    objective: float
    iterations: int
    status: str  # "optimal" | "iteration_limit" | "numerical_failure"


def _step_length(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest alpha in (0, 1] keeping v + alpha*dv >= 0."""
    neg = dv < 0.0
    if not neg.any():
        return 1.0
    return float(min(1.0, np.min(-v[neg] / dv[neg])))


def _solve_spd(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a symmetric positive (semi)definite system, adding a progressively
    larger diagonal ridge if late-stage degeneracy makes it numerically
    singular. The first ridge is ~1e-12 relative, far below solver tolerance."""
    scale = float(np.trace(matrix)) / matrix.shape[0] + 1.0
    ridge = 0.0
    while True:
        try:
            if ridge == 0.0:
                return np.linalg.solve(matrix, rhs)
            bumped = matrix.copy()
            bumped[np.diag_indices_from(bumped)] += ridge * scale
            return np.linalg.solve(bumped, rhs)
        except np.linalg.LinAlgError:
            ridge = 1e-12 if ridge == 0.0 else ridge * 1e4
            if ridge > 1e-2:
                raise


class _ScaledSystem:
    """Applies (Q + diag(d))^-1 for the current barrier scaling d = z/x."""

    def __init__(self, quad_factor, quad_weights, d):
        self.dinv = 1.0 / d
        self.factor = quad_factor
        if quad_factor is None:
            self.inner = None
        else:
            scaled = quad_factor * self.dinv[None, :]
            self.inner = scaled @ quad_factor.T
            self.inner[np.diag_indices_from(self.inner)] += 0.5 / quad_weights

    def apply(self, v: np.ndarray) -> np.ndarray:
        dinv = self.dinv if v.ndim == 1 else self.dinv[:, None]
        dv = dinv * v
        if self.factor is None:
            return dv
        t = self.factor @ dv
        u = _solve_spd(self.inner, t)
        return dv - dinv * (self.factor.T @ u)


def solve_standard_form(
    quad_factor: np.ndarray | None,
    quad_weights: np.ndarray | None,
    linear: np.ndarray | None,
    eq_matrix: np.ndarray,
    eq_rhs: np.ndarray,
    x0: np.ndarray,
    tolerance: float = 1e-8,
    max_iterations: int = 200,
) -> IpmResult:
    """Run the predictor-corrector iteration from a strictly positive x0.

    quad_factor (K, M) and quad_weights (K,) define the quadratic term; pass
    None for a pure LP. Rows with zero weight are discarded. ``x0`` must be
    strictly positive and should roughly satisfy the equalities.
    """
    A = np.asarray(eq_matrix, dtype=np.float64)
    b = np.asarray(eq_rhs, dtype=np.float64)
    n_eq, n_var = A.shape

    G = None
    w = None
    if quad_factor is not None:
        keep = np.asarray(quad_weights, dtype=np.float64) > 0.0
        if keep.any():
            G = np.ascontiguousarray(np.asarray(quad_factor, dtype=np.float64)[keep])
            w = np.asarray(quad_weights, dtype=np.float64)[keep]
    c = (
        np.zeros(n_var)
        if linear is None
        else np.asarray(linear, dtype=np.float64).copy()
    )

    def gradient(x):
        if G is None:
            return c
        return 2.0 * (G.T @ (w * (G @ x))) + c

    def objective(x):
        val = float(c @ x)
        if G is not None:
            gx = G @ x
            val += float(w @ (gx * gx))
        return val

    x = np.asarray(x0, dtype=np.float64).copy()
    if x.min() <= 0.0:
        raise ValueError("x0 must be strictly positive")
    y = np.zeros(n_eq)
    z = np.ones(n_var)

    b_scale = 1.0 + float(np.abs(b).max(initial=0.0))
    status = "iteration_limit"
    iterations = 0

    def converged(r_p, r_d, gap, obj, factor=1.0):
        tol = tolerance * factor
        return (
            gap <= tol * (1.0 + abs(obj))
            and np.abs(r_p).max(initial=0.0) <= tol * b_scale
            and np.abs(r_d).max(initial=0.0) <= tol * (1.0 + np.abs(gradient_x).max())
        )

    try:
        for iterations in range(1, max_iterations + 1):
            gradient_x = gradient(x)
            r_d = gradient_x - A.T @ y - z
            r_p = A @ x - b
            gap = float(x @ z)
            obj = objective(x)
            if converged(r_p, r_d, gap, obj):
                status = "optimal"
                iterations -= 1
                break

            mu = gap / n_var
            system = _ScaledSystem(G, w, z / x)
            kinv_at = system.apply(A.T)
            schur = A @ kinv_at

            def direction(rc):
                v = -r_d + rc / x
                t = system.apply(v)
                dy = _solve_spd(schur, -(r_p + A @ t))
                dx = t + kinv_at @ dy
                dz = (rc - z * dx) / x
                return dx, dy, dz

            # predictor: pure Newton step toward complementarity zero
            dx_a, dy_a, dz_a = direction(-x * z)
            alpha_p = _step_length(x, dx_a)
            alpha_d = _step_length(z, dz_a)
            mu_aff = float((x + alpha_p * dx_a) @ (z + alpha_d * dz_a)) / n_var
            sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-10)) if mu > 0.0 else 0.0

            # corrector: recenter and compensate the predictor's curvature
            dx, dy, dz = direction(sigma * mu - x * z - dx_a * dz_a)
            alpha_p = _STEP_SCALE * _step_length(x, dx)
            alpha_d = _STEP_SCALE * _step_length(z, dz)
            if max(alpha_p, alpha_d) < 1e-13:
                status = "numerical_failure"
                break
            x = x + alpha_p * dx
            y = y + alpha_d * dy
            z = z + alpha_d * dz
            if not all(np.isfinite(v).all() for v in (x, y, z)):
                # a non-finite iterate never recovers: stop instead of
                # iterating on NaN up to the limit
                status = "numerical_failure"
                break
    except np.linalg.LinAlgError:
        status = "numerical_failure"

    if status != "optimal":
        # accept a mildly looser iterate rather than discarding a usable one
        # (typical when endgame degeneracy stalls the last digits of the gap)
        gradient_x = gradient(x)
        r_d = gradient_x - A.T @ y - z
        r_p = A @ x - b
        if converged(r_p, r_d, float(x @ z), objective(x), factor=100.0):
            status = "optimal"

    return IpmResult(
        x=x,
        eq_duals=y,
        bound_duals=z,
        objective=objective(x),
        iterations=iterations,
        status=status,
    )
