from unittest.mock import patch

import numpy as np
import pytest

import atomsched as a
from atomsched import ipm, relaxation
from atomsched.ipm import IpmResult, solve_standard_form
from test_scr import stalling_par_instance, stalling_round_drops
from test_scr_golden import CASES

_STEP_SCALE = 0.9995


def _step_length(v, dv):
    neg = dv < 0.0
    if not neg.any():
        return 1.0
    return float(min(1.0, np.min(-v[neg] / dv[neg])))


def _solve_spd(matrix, rhs):
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

    def apply(self, v):
        dinv = self.dinv if v.ndim == 1 else self.dinv[:, None]
        dv = dinv * v
        if self.factor is None:
            return dv
        t = self.factor @ dv
        u = _solve_spd(self.inner, t)
        return dv - dinv * (self.factor.T @ u)


def dense_solve_standard_form(
    quad_factor, quad_weights, linear, eq_matrix, eq_rhs, x0,
    tolerance=ipm.TOLERANCE, max_iterations=ipm.MAX_ITERATIONS,
):
    """Reference Newton step: the predictor-corrector iteration of
    ``ipm.solve_standard_form`` on a dense equality matrix A, with the
    (Q + X^-1 Z) solves done by Woodbury and a Schur complement of size
    len(A). Kept verbatim from before the simplex rows were eliminated."""
    A = np.asarray(eq_matrix, dtype=np.float64)
    b = np.asarray(eq_rhs, dtype=np.float64)
    n_eq, n_var = A.shape

    G = None
    w = None
    if quad_factor is not None:
        weights = np.asarray(quad_weights, dtype=np.float64)
        keep = weights > 0.5 / np.finfo(np.float64).max
        if keep.any():
            G = np.ascontiguousarray(np.asarray(quad_factor, dtype=np.float64)[keep])
            w = weights[keep]
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

            dx_a, dy_a, dz_a = direction(-x * z)
            alpha_p = _step_length(x, dx_a)
            alpha_d = _step_length(z, dz_a)
            mu_aff = float((x + alpha_p * dx_a) @ (z + alpha_d * dz_a)) / n_var
            sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-10)) if mu > 0.0 else 0.0

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
                status = "numerical_failure"
                break
    except np.linalg.LinAlgError:
        status = "numerical_failure"

    if status != "optimal":
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


def simplex_rows(group_sizes, n_var):
    """The dense rows sum_{j in group n} x_j of contiguous groups from column 0."""
    sizes = np.asarray(group_sizes)
    rows = np.zeros((len(sizes), n_var))
    rows[np.repeat(np.arange(len(sizes)), sizes), np.arange(sizes.sum())] = 1.0
    return rows


def dense_step(
    quad_factor, quad_weights, linear, group_sizes, coupling, x0,
    tolerance=ipm.TOLERANCE, max_iterations=ipm.MAX_ITERATIONS,
):
    """``solve_standard_form``'s structured input, solved by the dense
    reference: the simplex rows (right-hand side 1), then the coupling rows
    (right-hand side 0), as one matrix."""
    eq_matrix = simplex_rows(group_sizes, len(x0))
    eq_rhs = np.ones(len(eq_matrix))
    if coupling is not None:
        eq_matrix = np.vstack([eq_matrix, coupling])
        eq_rhs = np.concatenate([eq_rhs, np.zeros(len(coupling))])
    return dense_solve_standard_form(
        quad_factor, quad_weights, linear, eq_matrix, eq_rhs, x0,
        tolerance, max_iterations,
    )


def test_tiny_qp_known_solution():
    # minimize x0^2 + 2 x1^2 on the simplex: optimum (2/3, 1/3), value 2/3
    result = solve_standard_form(
        quad_factor=np.eye(2),
        quad_weights=np.array([1.0, 2.0]),
        linear=None,
        group_sizes=[2],
        coupling=None,
        x0=np.array([0.5, 0.5]),
    )
    assert result.status == "optimal"
    assert np.allclose(result.x, [2 / 3, 1 / 3], atol=1e-7)
    assert result.objective == pytest.approx(2 / 3, abs=1e-8)


def test_tiny_lp_known_solution():
    # minimize x0 + 3 x1 on the simplex: optimum (1, 0)
    result = solve_standard_form(
        quad_factor=None,
        quad_weights=None,
        linear=np.array([1.0, 3.0]),
        group_sizes=[2],
        coupling=None,
        x0=np.array([0.5, 0.5]),
    )
    assert result.status == "optimal"
    assert np.allclose(result.x, [1.0, 0.0], atol=1e-7)
    assert result.objective == pytest.approx(1.0, abs=1e-8)


def test_single_variable_rows_are_pinned():
    result = solve_standard_form(
        quad_factor=np.eye(3),
        quad_weights=np.ones(3),
        linear=None,
        group_sizes=[1, 2],
        coupling=None,
        x0=np.array([1.0, 0.5, 0.5]),
    )
    assert result.status == "optimal"
    assert result.x[0] == pytest.approx(1.0, abs=1e-7)
    assert result.x[1] == pytest.approx(0.5, abs=1e-6)


def test_rejects_nonpositive_start():
    with pytest.raises(ValueError):
        solve_standard_form(
            None, None, np.ones(2), [2], None, np.array([0.0, 1.0])
        )
    with pytest.raises(ValueError, match="every simplex group needs at least one column"):
        solve_standard_form(None, None, np.ones(2), [0, 2], None, np.ones(2))


def _relaxed_cost_via_scipy(instance, dropped=frozenset()):
    from scipy.optimize import LinearConstraint, minimize

    table = a.PlacementTable(instance)
    live = table.live(dropped)
    per_user = np.bincount(table.users[live], minlength=instance.n_users)
    n_var = int(live.sum())
    weights = np.asarray(instance.cost_coefficients)
    loads_of = table.rows[live].T

    def fun(x):
        loads = loads_of @ x
        return float(weights @ (loads * loads))

    def jac(x):
        return 2.0 * loads_of.T @ (weights * (loads_of @ x))

    constraint = LinearConstraint(simplex_rows(per_user, n_var), 1.0, 1.0)
    res = minimize(
        fun,
        1.0 / per_user[table.users[live]],
        jac=jac,
        bounds=[(0.0, 1.0)] * n_var,
        constraints=[constraint],
        method="trust-constr",
        options={"gtol": 1e-10, "xtol": 1e-12, "maxiter": 2000},
    )
    return float(res.fun)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relaxed_cost_matches_scipy(seed):
    inst = a.generate_instance(3, seed)
    own = a.solve_relaxed(inst, a.ObjectiveKind.COST).objective_value
    reference = _relaxed_cost_via_scipy(inst)
    assert own == pytest.approx(reference, rel=1e-6, abs=1e-8)


def _relaxed_peak_via_highs(instance, dropped=frozenset()):
    """Reference peak LP: minimize p subject to loads <= p on every slot and
    a probability row per user over its undropped feasible starts."""
    from scipy.optimize import linprog

    table = a.PlacementTable(instance)
    pairs = zip(table.users.tolist(), table.starts.tolist())
    live = np.array([pair not in dropped for pair in pairs])
    users = table.users[live]
    m, horizon, n_users = len(users), instance.horizon, instance.n_users
    simplex = np.zeros((n_users, m))
    simplex[users, np.arange(m)] = 1.0
    cost = np.zeros(m + 1)
    cost[m] = 1.0
    res = linprog(
        cost,
        A_ub=np.hstack([table.rows[live].T, -np.ones((horizon, 1))]),
        b_ub=np.zeros(horizon),
        A_eq=np.hstack([simplex, np.zeros((n_users, 1))]),
        b_eq=np.ones(n_users),
        bounds=[(0.0, None)] * (m + 1),
        method="highs",
    )
    assert res.success, res.message
    return float(res.x[m])


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_relaxed_par_matches_highs(seed):
    pytest.importorskip("scipy")
    inst = a.generate_instance(4, seed)
    own = a.solve_relaxed(inst, a.ObjectiveKind.PAR).objective_value
    highs = _relaxed_peak_via_highs(inst)
    assert own == pytest.approx(highs, rel=1e-7, abs=1e-8)


def test_relaxed_par_matches_highs_under_drops():
    pytest.importorskip("scipy")
    inst = a.generate_instance(4, 9)
    sets_ = a.start_sets(inst)
    dropped = {(0, sets_[0][0]), (0, sets_[0][1]), (2, sets_[2][3])}
    own = a.solve_relaxed(inst, a.ObjectiveKind.PAR, dropped).objective_value
    highs = _relaxed_peak_via_highs(inst, dropped)
    assert own == pytest.approx(highs, rel=1e-7, abs=1e-8)


def ipm_result(solver, instance, objective, dropped):
    """The IPM result of one relaxed solve with ``solver`` as the Newton
    step, also when the relaxation rejects it."""
    results = []

    def spy(*args, **kwargs):
        results.append(solver(*args, **kwargs))
        return results[-1]

    with patch.object(relaxation, "solve_standard_form", spy):
        try:
            relaxation.solve_relaxed(instance, objective, dropped)
        except a.SolverError:
            pass
    return results[0]


@pytest.mark.parametrize("objective", list(a.ObjectiveKind))
@pytest.mark.parametrize("n", range(3, 11))
def test_structured_step_matches_dense_reference(n, objective):
    """Drop sets are the first quarter, half and three quarters of SCR's own
    drop history. Once every row is down to its last start in the peak, the
    PAR optimum is a degenerate vertex where the dense step stops up to 2e-8
    short of it, inside the solver tolerance but not within 1e-9."""
    for seed in (1, 2):
        inst = a.generate_instance(n, seed)
        history = a.successive_convex_relaxation(inst, objective).drop_history
        for quarters in range(4):
            dropped = set(history[: len(history) * quarters // 4])
            expected = ipm_result(dense_step, inst, objective, dropped)
            got = ipm_result(solve_standard_form, inst, objective, dropped)
            assert got.status == expected.status
            assert got.objective == pytest.approx(expected.objective, rel=1e-9)


@pytest.mark.parametrize("n, seed, objective", CASES)
def test_golden_scr_trajectory_matches_dense_reference(n, seed, objective):
    inst, kind = a.generate_instance(n, seed), a.ObjectiveKind(objective)
    with patch.object(relaxation, "solve_standard_form", dense_step):
        expected = a.successive_convex_relaxation(inst, kind)
    got = a.successive_convex_relaxation(inst, kind)
    assert got.schedule == expected.schedule
    assert got.drop_history == expected.drop_history
    assert got.iterations == expected.iterations


def test_stalling_round_par_lp_matches_highs():
    # the dense step stalls on this LP and stops at a non-finite iterate
    pytest.importorskip("scipy")
    inst, dropped = stalling_par_instance(), stalling_round_drops()
    own = a.solve_relaxed(inst, a.ObjectiveKind.PAR, dropped).objective_value
    highs = _relaxed_peak_via_highs(inst, set(dropped))
    assert own == pytest.approx(highs, rel=1e-7, abs=1e-8)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_relaxed_solve_stops_at_first_non_finite_iterate():
    # nothing bounds the ungrouped column that minimizing -x1 pushes up: the
    # iterates grow until they overflow
    result = solve_standard_form(None, None, np.array([0.0, -1.0]), [1], None, np.ones(2))
    assert result.status == "numerical_failure"
    assert result.iterations < ipm.MAX_ITERATIONS
