import numpy as np
import pytest
from scipy.optimize import brentq

from oracles import grid_search_apv, qp_active_set_reference
from util import warmed_objective

from fluidaircomp.model import LinearConstraints, PositionSet
from fluidaircomp.pdip import (InfeasibleStartError, QuadraticObjective,
                               SingularKktError, newton_step, residuals,
                               solve_pdip)


def unit_box(n=1):
    """0 <= x <= 1 in the f(x) = Ax + d <= 0 convention."""
    mat = np.vstack([-np.eye(n), np.eye(n)])
    off = np.concatenate([np.zeros(n), -np.ones(n)])
    return LinearConstraints(matrix=mat, offsets=off)


def step_at(objective, constraints, x, nu, delta):
    """newton_step at (x, nu) with the residuals for barrier parameter delta."""
    return newton_step(objective, constraints, x, nu,
                       *residuals(objective, constraints, x, nu, delta))


def central_path_point_1d(target, delta):
    """Solve the 1-D central-path equations for (x - target)^2 on [0, 1].

    Stationarity: 2(x - target) + nu2 - nu1 = 0 with nu1 = 1/(delta x),
    nu2 = 1/(delta (1 - x)).
    """
    def stationarity(x):
        return 2.0 * (x - target) - 1.0 / (delta * x) + 1.0 / (delta * (1.0 - x))

    x = brentq(stationarity, 1e-12, 1.0 - 1e-12, xtol=1e-15)
    nu = np.array([1.0 / (delta * x), 1.0 / (delta * (1.0 - x))])
    return x, nu


def test_residuals_zero_multiplier_reduces_to_gradient():
    obj = QuadraticObjective(np.eye(1), np.array([-0.6]), 0.09)  # (x-0.3)^2
    cons = unit_box()
    x = np.array([0.7])
    r_dual, r_cent = residuals(obj, cons, x, np.zeros(2), delta=2.0)
    assert np.allclose(r_dual, obj.gradient(x))
    assert np.allclose(r_cent, -0.5)


def test_residuals_reject_infeasible_point():
    obj = QuadraticObjective(np.eye(1), np.zeros(1))
    with pytest.raises(InfeasibleStartError):
        residuals(obj, unit_box(), np.array([1.5]), np.ones(2), delta=1.0)


def test_residuals_vanish_on_central_path():
    delta = 25.0
    obj = QuadraticObjective(np.eye(1), np.array([-0.6]), 0.09)
    x, nu = central_path_point_1d(0.3, delta)
    r_dual, r_cent = residuals(obj, unit_box(), np.array([x]), nu, delta)
    assert np.max(np.abs(r_dual)) < 1e-10
    assert np.max(np.abs(r_cent)) < 1e-10


def test_residual_centrality_inverse_identity():
    rng = np.random.default_rng(0)
    obj = QuadraticObjective(np.eye(2), np.zeros(2))
    cons = unit_box(2)
    x = rng.uniform(0.1, 0.9, 2)
    delta = 3.0
    f = cons.values(x)
    nu = 1.0 / (-delta * f)
    _, r_cent = residuals(obj, cons, x, nu, delta)
    assert np.max(np.abs(r_cent)) < 1e-15  # zero up to one rounding of 1/delta


def test_newton_step_zero_at_central_path():
    delta = 10.0
    obj = QuadraticObjective(np.eye(1), np.array([-0.6]), 0.09)
    x, nu = central_path_point_1d(0.3, delta)
    dx, dnu = step_at(obj, unit_box(), np.array([x]), nu, delta)
    assert np.max(np.abs(dx)) < 1e-9
    assert np.max(np.abs(dnu)) < 1e-8


def test_newton_step_lands_on_central_path_for_quadratic():
    # from a nearby point one undamped Newton step recovers the 1-D central
    # path point almost exactly (the system is mildly nonlinear in nu)
    delta = 10.0
    obj = QuadraticObjective(np.eye(1), np.array([-0.6]), 0.09)
    x_star, nu_star = central_path_point_1d(0.3, delta)
    x = np.array([x_star + 1e-4])
    nu = nu_star + np.array([1e-4, -1e-4])
    dx, dnu = step_at(obj, unit_box(), x, nu, delta)
    assert abs((x + dx)[0] - x_star) < 1e-8
    assert np.max(np.abs(nu + dnu - nu_star)) < 1e-6


def test_newton_step_escalates_damping_to_descent_direction():
    # engineered singular KKT system: indefinite diagonal Hessian whose
    # negative curvature exactly cancels the barrier curvature of the second
    # coordinate, forcing the damping escalation path
    class Indefinite:
        def value(self, x):
            return 0.5 * (x[0] ** 2 - x[1] ** 2)

        def gradient(self, x):
            return np.array([x[0], -x[1]])

        def hessian(self, x):
            return np.diag([1.0, -1.0])

    cons = unit_box(2)
    x = np.array([0.4, 0.5])
    f = cons.values(x)
    # nu tuned so that nu2/(-f2) + nu4/(-f4) == 1 for the x2 coordinate
    nu = np.array([1.0, 0.25, 1.0, 0.25])
    delta = 2.0

    def norm(px, pnu):
        r_d, r_c = residuals(Indefinite(), cons, px, pnu, delta)
        return np.sqrt(np.sum(r_d**2) + np.sum(r_c**2))

    kkt = np.block([
        [Indefinite().hessian(x), cons.matrix.T],
        [-nu[:, None] * cons.matrix, -np.diag(f)],
    ])
    assert abs(np.linalg.det(kkt)) < 1e-12  # singular by construction

    dx, dnu = step_at(Indefinite(), cons, x, nu, delta)
    # the damped solve blows up along the singular direction, so descent only
    # shows below the second-order crossover; scan shrinking steps like the
    # solver's backtracking would
    base = norm(x, nu)
    cap = 1e-3 / max(1.0, np.max(np.abs(dx)), np.max(np.abs(dnu)))
    scales = cap * 0.5 ** np.arange(40)
    assert any(norm(x + t * dx, nu + t * dnu) < base for t in scales)


def test_newton_step_gives_up_on_broken_oracle():
    # damping can always repair a singular primal block while f < 0, so the
    # give-up path triggers only for oracles returning non-finite curvature
    class Broken:
        def value(self, x):
            return 0.0

        def gradient(self, x):
            return np.zeros(1)

        def hessian(self, x):
            return np.array([[np.nan]])

    with pytest.raises(SingularKktError):
        step_at(Broken(), unit_box(), np.array([0.5]), np.ones(2), delta=1.0)


def test_solve_interior_optimum():
    obj = QuadraticObjective(np.eye(1), np.array([-0.6]), 0.09)
    report = solve_pdip(obj, unit_box(), np.array([0.9]))
    assert report.converged
    assert report.x[0] == pytest.approx(0.3, abs=1e-6)
    assert report.dual_residual <= 1e-8
    assert report.duality_gap <= 1e-8


def test_solve_boundary_optimum_with_active_multiplier():
    obj = QuadraticObjective(np.eye(1), np.array([1.0]), 0.25)  # (x+0.5)^2
    report = solve_pdip(obj, unit_box(), np.array([0.5]))
    assert report.converged
    assert report.x[0] == pytest.approx(0.0, abs=1e-6)


def test_solve_requires_strictly_feasible_start():
    obj = QuadraticObjective(np.eye(1), np.zeros(1))
    with pytest.raises(InfeasibleStartError):
        solve_pdip(obj, unit_box(), np.array([1.0]))  # boundary, not strict


def test_solve_matches_active_set_reference_on_position_qps():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        positions = PositionSet(n, float(n), 0.5)
        cons = positions.constraints
        root = rng.normal(size=(n, n))
        quad = root @ root.T + 0.1 * np.eye(n)
        lin = rng.normal(size=n)
        obj = QuadraticObjective(quad, lin)
        report = solve_pdip(obj, cons, positions.interior())
        ref = qp_active_set_reference(quad, lin, cons)
        assert report.converged
        assert np.max(np.abs(report.x - ref)) < 1e-6
        assert report.value == pytest.approx(obj.value(ref), abs=1e-6)


def test_solve_strict_feasibility_along_the_run():
    # the solver must only ever evaluate the oracle at strictly feasible
    # points; a recording wrapper observes every query
    positions, objective, _ = warmed_objective(seed=5, n_antennas=4, n_users=3)
    cons = positions.constraints
    seen = []

    class Spy:
        def value(self, x):
            seen.append(x.copy())
            return objective.value(x)

        def gradient(self, x):
            seen.append(x.copy())
            return objective.gradient(x)

        def hessian(self, x):
            seen.append(x.copy())
            return objective.hessian(x)

    report = solve_pdip(Spy(), cons, positions.interior())
    assert np.max(cons.values(report.x)) < 0
    assert report.status in ("converged", "max_iters", "line_search_stall")
    assert seen
    assert all(np.max(cons.values(x)) < 0 for x in seen)


def test_solve_evaluates_each_point_once(monkeypatch):
    # the gradient is never taken twice at one point, and the residuals are
    # evaluated once at x0 and once per strictly feasible trial point; this
    # instance also rejects some feasible trial points in its line search
    positions, objective, _ = warmed_objective(seed=2, n_antennas=5, n_users=3)
    gradient_points = []
    feasible_points = set()

    class Counting:
        def value(self, x):
            return objective.value(x)

        def gradient(self, x):
            gradient_points.append(x.tobytes())
            return objective.gradient(x)

        def hessian(self, x):
            return objective.hessian(x)

    class SpyConstraints(LinearConstraints):
        def values(self, x):
            f = super().values(x)
            if np.max(f) < 0:
                feasible_points.add(np.asarray(x, dtype=float).tobytes())
            return f

    residual_calls = []

    def counted_residuals(*args):
        residual_calls.append(args[2].tobytes())
        return residuals(*args)

    monkeypatch.setattr("fluidaircomp.pdip.residuals", counted_residuals)
    cons = SpyConstraints(positions.constraints.matrix, positions.constraints.offsets)
    report = solve_pdip(Counting(), cons, positions.interior())
    assert len(residual_calls) > report.iterations + 1
    assert len(gradient_points) == len(set(gradient_points))
    assert len(residual_calls) == len(feasible_points)
    assert set(residual_calls) == feasible_points


def test_solve_deterministic():
    positions, objective, _ = warmed_objective(seed=6, n_antennas=5, n_users=4)
    x0 = positions.interior()
    a = solve_pdip(objective, positions.constraints, x0)
    b = solve_pdip(objective, positions.constraints, x0)
    assert np.array_equal(a.x, b.x)
    assert a.value_history == b.value_history


def test_solve_apv_instance_reaches_grid_optimum():
    # seeded non-convex instance where the interior-point run lands in the
    # global basin; the dense grid bounds the optimum from above
    positions, objective, _ = warmed_objective(seed=3, n_antennas=3, n_users=2)
    x0 = positions.interior()
    report = solve_pdip(objective, positions.constraints, x0)
    resolution = 0.015
    _, g_best = grid_search_apv(objective, positions.aperture,
                                positions.min_spacing, resolution)
    assert objective.value(report.x) <= g_best + 1e-4
    assert objective.value(report.x) <= objective.value(x0)
