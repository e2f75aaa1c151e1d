import numpy as np
import pytest

import atomsched as a
from atomsched.ipm import solve_standard_form
from atomsched.relaxation import _Packing


def test_tiny_qp_known_solution():
    # minimize x0^2 + 2 x1^2 on the simplex: optimum (2/3, 1/3), value 2/3
    result = solve_standard_form(
        quad_factor=np.eye(2),
        quad_weights=np.array([1.0, 2.0]),
        linear=None,
        eq_matrix=np.ones((1, 2)),
        eq_rhs=np.ones(1),
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
        eq_matrix=np.ones((1, 2)),
        eq_rhs=np.ones(1),
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
        eq_matrix=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]),
        eq_rhs=np.ones(2),
        x0=np.array([1.0, 0.5, 0.5]),
    )
    assert result.status == "optimal"
    assert result.x[0] == pytest.approx(1.0, abs=1e-7)
    assert result.x[1] == pytest.approx(0.5, abs=1e-6)


def test_rejects_nonpositive_start():
    with pytest.raises(ValueError):
        solve_standard_form(
            None, None, np.ones(2), np.ones((1, 2)), np.ones(1), np.array([0.0, 1.0])
        )


def _relaxed_cost_via_scipy(instance, dropped=frozenset()):
    from scipy.optimize import LinearConstraint, minimize

    packing = _Packing(instance, dropped)
    weights = np.asarray(instance.cost_coefficients)
    loads_of = packing.loads_of

    def fun(x):
        loads = loads_of @ x
        return float(weights @ (loads * loads))

    def jac(x):
        return 2.0 * loads_of.T @ (weights * (loads_of @ x))

    constraint = LinearConstraint(packing.simplex, 1.0, 1.0)
    res = minimize(
        fun,
        packing.uniform_start(),
        jac=jac,
        bounds=[(0.0, 1.0)] * packing.n_var,
        constraints=[constraint],
        method="trust-constr",
        options={"gtol": 1e-10, "xtol": 1e-12, "maxiter": 2000},
    )
    return float(res.fun)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relaxed_cost_matches_scipy(seed):
    inst = a.generate_instance(3, seed)
    own = a.solve_relaxed_cost(inst).objective_value
    reference = _relaxed_cost_via_scipy(inst)
    assert own == pytest.approx(reference, rel=1e-6, abs=1e-8)


def _relaxed_peak_via_highs(instance, dropped=frozenset()):
    """Reference peak LP: minimize p subject to loads <= p on every slot and
    a probability row per user over its undropped feasible starts."""
    from scipy.optimize import linprog

    table = a.PlacementTable(instance)
    pairs = zip(table.users.tolist(), table.starts.tolist())
    live = np.array([pair not in dropped for pair in pairs])
    users, starts = table.users[live], table.starts[live]
    m, horizon, n_users = len(users), instance.horizon, instance.n_users
    simplex = np.zeros((n_users, m))
    simplex[users, np.arange(m)] = 1.0
    cost = np.zeros(m + 1)
    cost[m] = 1.0
    res = linprog(
        cost,
        A_ub=np.hstack([table.rows[users, starts].T, -np.ones((horizon, 1))]),
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
    own = a.solve_relaxed_par(inst).objective_value
    highs = _relaxed_peak_via_highs(inst)
    assert own == pytest.approx(highs, rel=1e-7, abs=1e-8)


def test_relaxed_par_matches_highs_under_drops():
    pytest.importorskip("scipy")
    inst = a.generate_instance(4, 9)
    sets_ = a.start_sets(inst)
    dropped = {(0, sets_[0][0]), (0, sets_[0][1]), (2, sets_[2][3])}
    own = a.solve_relaxed_par(inst, dropped).objective_value
    highs = _relaxed_peak_via_highs(inst, dropped)
    assert own == pytest.approx(highs, rel=1e-7, abs=1e-8)


def test_settings_validation():
    with pytest.raises(ValueError):
        a.SolverSettings(tolerance=0.0)
