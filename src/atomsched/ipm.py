"""Primal-dual interior-point solver for simplex-structured convex problems.

Solves   minimize    sum_k w_k * (G x)_k^2  +  c . x
         subject to  sum_{j in group n} x_j = 1   for every simplex group n,
                     C x = 0,   x >= 0

with Mehrotra predictor-corrector steps. The groups are contiguous column
runs from column 0 (one per user in the flow layout); later columns are in
no group. C holds the dense coupling rows, and the quadratic part comes in
factored form (G, w).

Each Newton step eliminates the simplex rows in closed form (Wright,
*Primal-Dual Interior-Point Methods*, SIAM 1997): with D = Z/X, centring the
stacked rows F = [G; C] per group with the weights x/z gives F~, and one
symmetric positive definite system of size K = rows of F,

    (F~ D^-1 F~' + diag((2w)^-1, 0)) u = r,

yields u; dx and the duals follow with O(n K) products. Two corrections to
each step taken make up for the rounding of terms as large as x/z: one round
of iterative refinement, folded into the corrector's solve, without which the
coupling residual of a degenerate LP can stall above the tolerance, and
restoring each group's sum along the x/z weights, without which the
objective follows the last bits of the BLAS kernel (by up to 1e-10
relative). The simplex rows imply x <= 1.

Both the cost relaxation and the peak LP (G empty) use this one entry point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_STEP_SCALE = 0.9995  # fraction of the distance to the boundary taken per step
#: relative accuracy at which an iterate is optimal
TOLERANCE = 1e-8
MAX_ITERATIONS = 200


@dataclass(frozen=True)
class IpmResult:
    x: np.ndarray
    #: duals of the simplex rows, then of the coupling rows
    eq_duals: np.ndarray
    bound_duals: np.ndarray
    #: the objective at ``x``; ``solve_relaxed`` reports it as the relaxed bound
    objective: float
    iterations: int
    status: str  # "optimal" | "iteration_limit" | "numerical_failure"


def _step_length(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest alpha in (0, 1] keeping v + alpha*dv >= 0."""
    neg = dv < 0.0
    return -float((v[neg] / dv[neg]).max(initial=-1.0))


def _solve_spd(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a symmetric positive (semi)definite system, adding a progressively
    larger diagonal ridge if late-stage degeneracy makes it numerically
    singular. The first ridge is ~1e-12 relative, far below solver tolerance."""
    ridge = 0.0
    while True:
        try:
            if ridge == 0.0:
                return np.linalg.solve(matrix, rhs)
            bumped = matrix.copy()
            scale = float(np.trace(matrix)) / matrix.shape[0] + 1.0
            bumped[np.diag_indices_from(bumped)] += ridge * scale
            return np.linalg.solve(bumped, rhs)
        except np.linalg.LinAlgError:
            ridge = 1e-12 if ridge == 0.0 else ridge * 1e4
            if ridge > 1e-2:
                raise


def solve_standard_form(
    quad_factor: np.ndarray | None,
    quad_weights: np.ndarray | None,
    linear: np.ndarray | None,
    group_sizes,
    coupling: np.ndarray | None,
    x0: np.ndarray,
    tolerance: float = TOLERANCE,
    max_iterations: int = MAX_ITERATIONS,
) -> IpmResult:
    """Run the predictor-corrector iteration from a strictly positive x0.

    quad_factor (K, M) and quad_weights (K,) define the quadratic term; pass
    None for a pure LP. Rows whose weight is zero, or so small that its
    inverse overflows, are discarded. ``group_sizes`` lists the column count
    of each simplex group, in column order from column 0; ``coupling`` holds
    the dense rows C, or is None. ``x0`` must be strictly positive and
    should roughly satisfy the equalities.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    if x.min() <= 0.0:
        raise ValueError("x0 must be strictly positive")
    n_var = len(x)
    sizes = np.asarray(group_sizes, dtype=np.intp)
    if sizes.min(initial=1) < 1:
        raise ValueError("every simplex group needs at least one column")
    heads = np.cumsum(sizes) - sizes
    grouped = int(sizes.sum())

    G, w = np.zeros((0, n_var)), np.zeros(0)
    if quad_factor is not None:
        weights = np.asarray(quad_weights, dtype=np.float64)
        # the system adds 0.5 / w: drop weights that overflow it, like zeros
        keep = weights > 0.5 / np.finfo(np.float64).max
        G, w = np.asarray(quad_factor, dtype=np.float64)[keep], weights[keep]
    n_quad, half_inv_w = len(w), 0.5 / w
    C = np.zeros((0, n_var)) if coupling is None else np.asarray(coupling, dtype=np.float64)
    F = np.vstack([G, C])
    f_tilde = F.copy()  # columns in no group are never centred
    c = np.zeros(n_var) if linear is None else np.asarray(linear, dtype=np.float64)

    def group_sums(v):
        return np.add.reduceat(v[..., :grouped], heads, axis=-1)

    def evaluate(x, y_e, y_c, z):
        """Objective, gradient, dual residual and the two primal residuals at
        an iterate; G x is formed once for the objective and the gradient."""
        obj, gradient_x = float(c @ x), c
        if n_quad:
            gx = G @ x
            obj += float(w @ (gx * gx))
            gradient_x = 2.0 * (G.T @ (w * gx)) + c
        r_d = gradient_x - C.T @ y_c - z if len(C) else gradient_x - z
        r_d[:grouped] -= y_e.repeat(sizes)
        return obj, gradient_x, r_d, group_sums(x) - 1.0, C @ x

    y_e = np.zeros(len(sizes))
    y_c = np.zeros(len(C))
    z = np.ones(n_var)

    # 1 + the largest right-hand side: 1 for a simplex row, 0 for a coupling row
    b_scale = 2.0 if len(sizes) else 1.0
    status = "iteration_limit"
    iterations = 0

    def converged(gradient_x, r_d, r_e, r_c, gap, obj, factor=1.0):
        tol = tolerance * factor
        return (
            gap <= tol * (1.0 + abs(obj))
            and np.abs(r_e).max(initial=0.0) <= tol * b_scale
            and np.abs(r_c).max(initial=0.0) <= tol * b_scale
            and np.abs(r_d).max(initial=0.0) <= tol * (1.0 + np.abs(gradient_x).max())
        )

    try:
        for iterations in range(1, max_iterations + 1):
            obj, gradient_x, r_d, r_e, r_c = evaluate(x, y_e, y_c, z)
            gap = float(x @ z)
            if converged(gradient_x, r_d, r_e, r_c, gap, obj):
                status = "optimal"
                iterations -= 1
                break

            mu = gap / n_var
            dinv, z_over_x = x / z, z / x
            delta = group_sums(dinv)
            # rows centred per group with weights x/z: F~ = F - Fbar per group
            f_bar = group_sums(F * dinv) / delta
            np.subtract(F[:, :grouped], f_bar.repeat(sizes, axis=1),
                        out=f_tilde[:, :grouped])
            system = (f_tilde * dinv) @ f_tilde.T
            if n_quad:
                system[np.diag_indices(n_quad)] += half_inv_w
            dinv_grouped = dinv[:grouped]

            def centred(q, r):
                """D^-1 (q - shift) with a shift per group that makes each
                group's entries sum to -r, and the shift."""
                t = dinv * q
                shift = (group_sums(t) + r) / delta
                t[:grouped] -= dinv_grouped * shift.repeat(sizes)
                return t, shift

            # predictor: pure Newton step toward complementarity zero
            t, shift = centred(-z - r_d, r_e)
            rhs = -(F @ t)
            rhs[n_quad:] -= r_c
            u = _solve_spd(system, rhs)
            dx_a = t + dinv * (f_tilde.T @ u)
            dz_a = -z - z_over_x * dx_a
            alpha_p = _step_length(x, dx_a)
            alpha_d = _step_length(z, dz_a)
            mu_aff = float((x + alpha_p * dx_a) @ (z + alpha_d * dz_a)) / n_var
            sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-10)) if mu > 0.0 else 0.0

            # corrector: recenter and compensate the predictor's curvature.
            # It is solved as a change to the predictor that also takes back
            # the predictor's miss of the rows of F, which is one round of
            # iterative refinement; then the group sums are restored
            q = (sigma * mu - dx_a * dz_a) / x
            t, shift_q = centred(q, 0.0)
            miss = F @ dx_a
            if n_quad:
                miss[:n_quad] += half_inv_w * u[:n_quad]
            miss[n_quad:] += r_c
            du = _solve_spd(system, -(F @ t) - miss)
            u += du
            dx = dx_a + t + dinv * (f_tilde.T @ du)
            fix = (group_sums(dx) + r_e) / delta
            dx[:grouped] -= dinv_grouped * fix.repeat(sizes)
            shift += shift_q + fix
            dz = q - z - z_over_x * dx

            alpha_p = _STEP_SCALE * _step_length(x, dx)
            alpha_d = _STEP_SCALE * _step_length(z, dz)
            if max(alpha_p, alpha_d) < 1e-13:
                status = "numerical_failure"
                break
            x = x + alpha_p * dx
            y_e = y_e - alpha_d * (shift + f_bar.T @ u)
            y_c = y_c + alpha_d * u[n_quad:]
            z = z + alpha_d * dz
            if not np.isfinite(np.concatenate((x, y_e, y_c, z))).all():
                # a non-finite iterate never recovers: stop instead of
                # iterating on NaN up to the limit
                status = "numerical_failure"
                break
    except np.linalg.LinAlgError:
        status = "numerical_failure"

    if status != "optimal":
        # accept a mildly looser iterate rather than discarding a usable one
        # (typical when endgame degeneracy stalls the last digits of the gap)
        obj, gradient_x, r_d, r_e, r_c = evaluate(x, y_e, y_c, z)
        if converged(gradient_x, r_d, r_e, r_c, float(x @ z), obj, factor=100.0):
            status = "optimal"

    return IpmResult(
        x=x,
        eq_duals=np.concatenate([y_e, y_c]),
        bound_duals=z,
        objective=obj,
        iterations=iterations,
        status=status,
    )
