import numpy as np
import pytest

import atomsched as a
from atomsched.flows import check_flows
from atomsched.objectives import score_loads

from conftest import random_relaxed_flows, schedule_value

COST = a.ObjectiveKind.COST
PAR = a.ObjectiveKind.PAR


def placement_matrix(instance):
    """Dense (horizon, n_users * horizon) matrix mapping flows to loads, built
    independently of the library: column ``n * horizon + s`` is user n's
    pattern, zero-padded to a day and rolled forward by s."""
    horizon = instance.horizon
    cols = []
    for appliance in instance.appliances:
        padded = np.zeros(horizon)
        padded[: appliance.duration] = appliance.energy_pattern
        cols.append(np.stack([np.roll(padded, s) for s in range(horizon)], axis=1))
    return np.concatenate(cols, axis=1)


def quadratic_cost_of(instance, flows):
    """Cost as a plain quadratic in arbitrary flow matrices (no feasibility).

    Uses the full placement matrix, so starts outside the feasible window
    also deposit load; on (at or near) feasible flows this agrees with
    the cost of the table's flow loads because those entries are zero.
    """
    loads = placement_matrix(instance) @ np.asarray(flows).ravel()
    return score_loads(COST, loads, np.asarray(instance.cost_coefficients), None)


def finite_difference_gradient(cost_fn, flows, step=1e-5):
    grad = np.zeros_like(flows)
    for n in range(flows.shape[0]):
        for s in range(flows.shape[1]):
            up = flows.copy()
            down = flows.copy()
            up[n, s] += step
            down[n, s] -= step
            grad[n, s] = (cost_fn(up) - cost_fn(down)) / (2 * step)
    return grad


def test_placement_table_rows_match_rolled_patterns():
    # includes a PHEV window over midnight and starts outside every window
    for seed in (1, 6):
        inst = a.generate_instance(5, seed)
        table = a.PlacementTable(inst)
        assert np.array_equal(
            table.rows_at_every_start().reshape(-1, inst.horizon).T, placement_matrix(inst)
        )
        assert list(zip(table.users, table.starts)) == [
            (n, s) for n, starts in enumerate(a.start_sets(inst)) for s in starts
        ]


def test_default_coefficients_two_tier():
    coeffs = a.default_cost_coefficients(24)
    assert coeffs[:8] == (0.2,) * 8
    assert coeffs[8:] == (0.3,) * 16


def test_energy_cost_examples(dish_washer_instance, phev_instance):
    cost = schedule_value(dish_washer_instance, COST, (3,))
    assert cost == pytest.approx(0.20736, rel=1e-12)

    coefficients = np.asarray(dish_washer_instance.cost_coefficients)
    assert score_loads(COST, np.zeros(24), coefficients, None) == 0.0

    cost = schedule_value(phev_instance, COST, (22,))
    assert cost == pytest.approx(8.712, rel=1e-12)


def test_par_examples(dish_washer_instance, two_window_instance):
    assert schedule_value(dish_washer_instance, PAR, (3,)) == pytest.approx(12.0, rel=1e-12)
    assert score_loads(PAR, np.full(24, 0.7), None, 0.7 * 24) == pytest.approx(1.0, rel=1e-12)
    assert schedule_value(two_window_instance, PAR, (0, 9)) == pytest.approx(4.8, rel=1e-12)
    # the horizon is the profile's length: a flat profile scores 1 at any length
    for horizon in (12, 24, 48):
        assert score_loads(PAR, np.ones(horizon), None, float(horizon)) == 1.0


def test_gradient_zero_loads(dish_washer_instance):
    grad = a.cost_gradient(dish_washer_instance, np.zeros((1, 24)), tol=np.inf)
    assert np.array_equal(grad, np.zeros((1, 24)))


def test_gradient_hand_value(dish_washer_instance):
    flows = np.zeros((1, 24))
    flows[0, 3] = 1.0
    grad = a.cost_gradient(dish_washer_instance, flows)
    assert grad[0, 3] == pytest.approx(0.41472, rel=1e-12)


def in_window_mask(instance):
    mask = np.zeros((instance.n_users, instance.horizon), dtype=bool)
    for n, starts in enumerate(a.start_sets(instance)):
        mask[n, list(starts)] = True
    return mask


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(20)
    for seed in (1, 2):
        inst = a.generate_instance(3, seed)
        mask = in_window_mask(inst)
        table = a.PlacementTable(inst)

        def through_ops(flows):
            # the spec's composition; depends only on in-window entries
            loads = table.flow_loads(check_flows(flows, table.feasible, np.inf))
            return score_loads(COST, loads, table.coefficients, None)

        for _ in range(10):
            flows = random_relaxed_flows(inst, rng)
            grad = a.cost_gradient(inst, flows)
            # full matrix against the extended quadratic
            full = finite_difference_gradient(
                lambda f: quadratic_cost_of(inst, f), flows
            )
            assert np.abs(grad - full).max() <= 1e-5 * (1.0 + np.abs(full).max())
            # feasible-start entries against the actual operations
            ops = finite_difference_gradient(through_ops, flows)
            assert np.abs((grad - ops)[mask]).max() <= 1e-5 * (
                1.0 + np.abs(ops).max()
            )


def test_hessian_diagonal_hand_value(dish_washer_instance):
    hess = a.cost_hessian(dish_washer_instance)
    assert hess[3, 3] == pytest.approx(0.41472, rel=1e-12)


def test_hessian_disjoint_ranges_are_zero(two_window_instance):
    hess = a.cost_hessian(two_window_instance)
    horizon = 24
    # user 0 starting at 0 occupies slots {0,1}; user 1 at 9 occupies {9,10,11}
    assert hess[0 * horizon + 0, 1 * horizon + 9] == 0.0
    # overlapping ranges couple: user 0 at 9 (slots 9,10) meets user 1 at 9
    assert hess[0 * horizon + 9, 1 * horizon + 9] > 0.0


def test_hessian_symmetric_psd_and_matches_fd():
    inst = a.generate_instance(3, 4)
    hess = a.cost_hessian(inst)
    assert np.abs(hess - hess.T).max() <= 1e-12
    eigenvalues = np.linalg.eigvalsh(hess)
    assert eigenvalues.min() >= -1e-9

    # quadratic objective: finite differences of the gradient reproduce the
    # Hessian at any point, which also shows it does not depend on the flows.
    # Columns for starts outside the window need the extended quadratic (the
    # gradient op reads loads only from feasible starts), so the jacobian is
    # taken through second differences of the extended cost there.
    rng = np.random.default_rng(3)
    step = 1e-5
    mask = np.zeros((inst.n_users, inst.horizon), dtype=bool)
    for n, starts in enumerate(a.start_sets(inst)):
        mask[n, list(starts)] = True
    cols = np.flatnonzero(mask.ravel())
    for flows in (random_relaxed_flows(inst, rng), random_relaxed_flows(inst, rng)):
        jac_cols = np.zeros((hess.shape[0], cols.size))
        for k, j in enumerate(cols):
            n, s = divmod(int(j), inst.horizon)
            up = flows.copy()
            down = flows.copy()
            up[n, s] += step
            down[n, s] -= step
            delta = a.cost_gradient(inst, up, tol=np.inf) - a.cost_gradient(
                inst, down, tol=np.inf
            )
            jac_cols[:, k] = (delta / (2 * step)).ravel()
        assert np.abs(jac_cols - hess[:, cols]).max() <= 1e-4 * (
            1.0 + np.abs(hess).max()
        )

    # spot-check full-matrix entries (including infeasible starts) against
    # second central differences of the extended quadratic
    flows = random_relaxed_flows(inst, rng)
    flat = flows.ravel().copy()
    picks = rng.integers(0, flat.size, size=(40, 2))
    for i, j in picks:
        fpp = flat.copy(); fpp[i] += step; fpp[j] += step
        fpm = flat.copy(); fpm[i] += step; fpm[j] -= step
        fmp = flat.copy(); fmp[i] -= step; fmp[j] += step
        fmm = flat.copy(); fmm[i] -= step; fmm[j] -= step
        shape = flows.shape
        second = (
            quadratic_cost_of(inst, fpp.reshape(shape))
            - quadratic_cost_of(inst, fpm.reshape(shape))
            - quadratic_cost_of(inst, fmp.reshape(shape))
            + quadratic_cost_of(inst, fmm.reshape(shape))
        ) / (4 * step * step)
        assert second == pytest.approx(hess[i, j], abs=1e-4 * (1 + abs(hess[i, j])))


def test_cost_is_convex_along_segments():
    rng = np.random.default_rng(40)
    inst = a.generate_instance(4, 2)
    for _ in range(30):
        f = random_relaxed_flows(inst, rng)
        g = random_relaxed_flows(inst, rng)
        lam = float(rng.uniform())
        mixed = quadratic_cost_of(inst, lam * f + (1 - lam) * g)
        bound = lam * quadratic_cost_of(inst, f) + (1 - lam) * quadratic_cost_of(
            inst, g
        )
        assert mixed <= bound + 1e-9


def test_par_rotation_invariance():
    rng = np.random.default_rng(50)
    inst = a.generate_instance(3, 9)
    horizon = inst.horizon
    for _ in range(10):
        schedule = tuple(
            starts[rng.integers(len(starts))] for starts in a.start_sets(inst)
        )
        base = schedule_value(inst, PAR, schedule)
        shift = int(rng.integers(1, horizon))
        rotated_appliances = [
            a.Appliance(
                ap.name,
                (ap.window_start + shift) % horizon,
                (ap.window_start + shift) % horizon
                + (ap.window_end - ap.window_start),
                ap.duration,
                ap.energy_pattern,
            )
            for ap in inst.appliances
        ]
        rotated = a.ProblemInstance(
            horizon, rotated_appliances, inst.cost_coefficients
        )
        rotated_schedule = tuple((s + shift) % horizon for s in schedule)
        value = schedule_value(rotated, PAR, rotated_schedule)
        assert value == pytest.approx(base, rel=1e-12)
