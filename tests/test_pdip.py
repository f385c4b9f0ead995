import numpy as np
import pytest
from scipy.optimize import brentq

from oracles import grid_search_apv, newton_step_block, qp_active_set_reference
from util import warmed_objective

from fluidaircomp.apv_objective import effective_weights
from fluidaircomp.closed_form import update_b, update_m
from fluidaircomp.model import PositionSet, channel_matrix, sample_scenario
from fluidaircomp.pdip import (_MAX_ITERS, InfeasibleStartError, SingularKktError,
                               _kkt_workspace, _newton_loop, newton_step, residuals,
                               solve_pdip)
from fluidaircomp.sca import QuadraticObjective


def unit_box():
    """The 1-D set 0 <= x <= 1: rows -x <= 0 and x - 1 <= 0."""
    return PositionSet(1, 1.0, 0.0)


class Box2:
    """The 2-D box 0 <= x <= 1 in the f(x) = matrix @ x + offsets <= 0
    convention; residuals and newton_step read only its matrix."""

    matrix = np.vstack([-np.eye(2), np.eye(2)])
    offsets = np.array([0.0, 0.0, -1.0, -1.0])

    def values(self, x):
        return self.matrix @ x + self.offsets


class Indefinite:
    """0.5 (x1^2 - x2^2): a constant indefinite Hessian diag(1, -1)."""

    def value(self, x):
        return 0.5 * (x[0] ** 2 - x[1] ** 2)

    def gradient(self, x):
        return np.array([x[0], -x[1]])

    def hessian(self, x):
        return np.diag([1.0, -1.0])


def step_at(objective, positions, x, nu, delta, kkt=None):
    """newton_step at (x, nu) with the residuals for barrier parameter delta,
    on the workspace kkt or a fresh one."""
    if kkt is None:
        kkt = _kkt_workspace(positions.matrix)
    f = positions.values(x)
    return newton_step(objective, positions, x, f, nu,
                       *residuals(objective, positions, x, f, nu, delta), kkt)


def block_step_at(objective, positions, x, nu, delta):
    """newton_step_block's (dx, dnu, rho) at (x, nu), as step_at."""
    f = positions.values(x)
    return newton_step_block(objective, positions, x, f, nu,
                             *residuals(objective, positions, x, f, nu, delta))


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
    r_dual, r_cent = residuals(obj, cons, x, cons.values(x), np.zeros(2), delta=2.0)
    assert np.allclose(r_dual, obj.gradient(x))
    assert np.allclose(r_cent, -0.5)


def test_residuals_reject_infeasible_point():
    obj = QuadraticObjective(np.eye(1), np.zeros(1))
    box = unit_box()
    x = np.array([1.5])
    with pytest.raises(InfeasibleStartError):
        residuals(obj, box, x, box.values(x), np.ones(2), delta=1.0)


def test_residuals_vanish_on_central_path():
    delta = 25.0
    obj = QuadraticObjective(np.eye(1), np.array([-0.6]), 0.09)
    x, nu = central_path_point_1d(0.3, delta)
    box, point = unit_box(), np.array([x])
    r_dual, r_cent = residuals(obj, box, point, box.values(point), nu, delta)
    assert np.max(np.abs(r_dual)) < 1e-10
    assert np.max(np.abs(r_cent)) < 1e-10


def test_residual_centrality_inverse_identity():
    rng = np.random.default_rng(0)
    obj = QuadraticObjective(np.eye(2), np.zeros(2))
    cons = Box2()
    x = rng.uniform(0.1, 0.9, 2)
    delta = 3.0
    f = cons.values(x)
    nu = 1.0 / (-delta * f)
    _, r_cent = residuals(obj, cons, x, f, nu, delta)
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
    cons = Box2()
    x = np.array([0.4, 0.5])
    f = cons.values(x)
    # nu tuned so that nu2/(-f2) + nu4/(-f4) == 1 for the x2 coordinate
    nu = np.array([1.0, 0.25, 1.0, 0.25])
    delta = 2.0

    def norm(px, pnu):
        r_d, r_c = residuals(Indefinite(), cons, px, cons.values(px), pnu, delta)
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


def assert_same_step(got, ref):
    assert got[0].tobytes() == ref[0].tobytes()
    assert got[1].tobytes() == ref[1].tobytes()


def test_kkt_workspace_matches_a_fresh_block_system():
    # newton_step writes H, -diag(nu) Df and the diagonal into a workspace
    # that keeps Df^T; each step must equal the np.block assembly bit for bit
    positions, objective, _ = warmed_objective(seed=5, n_antennas=4, n_users=3)
    x = positions.interior()
    nu = 0.1 / -positions.values(x)
    delta = 50.0
    ref = block_step_at(objective, positions, x, nu, delta)
    assert ref[2] == 0.0
    assert_same_step(step_at(objective, positions, x, nu, delta), ref)

    # two steps in a row on one workspace: no block of the first goes stale
    kkt = _kkt_workspace(positions.matrix)
    assert_same_step(step_at(objective, positions, x, nu, delta, kkt), ref)
    x2, nu2 = x + 0.5 * ref[0], nu + 0.5 * ref[1]
    assert np.all(positions.values(x2) < 0) and np.all(nu2 > 0)
    ref2 = block_step_at(objective, positions, x2, nu2, 2.0 * delta)
    assert_same_step(step_at(objective, positions, x2, nu2, 2.0 * delta, kkt), ref2)
    # an undamped step leaves the workspace equal to the whole block matrix,
    # down to the -0.0 that -diag(f) holds off its diagonal
    jac, f2 = positions.matrix, positions.values(x2)
    block = np.block([[objective.hessian(x2), jac.T], [-nu2[:, None] * jac, -np.diag(f2)]])
    assert kkt.tobytes() == block.tobytes()


def test_kkt_workspace_matches_after_damping_escalation():
    # the Box2 system of the escalation test needs rho > 0; the next step on
    # the same workspace, at multipliers where the undamped system solves,
    # must not keep the damped diagonal
    cons, x, delta = Box2(), np.array([0.4, 0.5]), 2.0
    nu = np.array([1.0, 0.25, 1.0, 0.25])
    kkt = _kkt_workspace(cons.matrix)
    ref = block_step_at(Indefinite(), cons, x, nu, delta)
    assert ref[2] > 0.0
    assert_same_step(step_at(Indefinite(), cons, x, nu, delta, kkt), ref)
    nu2 = np.array([1.0, 1.0, 1.0, 1.0])
    ref2 = block_step_at(Indefinite(), cons, x, nu2, delta)
    assert ref2[2] == 0.0
    assert_same_step(step_at(Indefinite(), cons, x, nu2, delta, kkt), ref2)


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
        root = rng.normal(size=(n, n))
        quad = root @ root.T + 0.1 * np.eye(n)
        lin = rng.normal(size=n)
        obj = QuadraticObjective(quad, lin)
        report = solve_pdip(obj, positions, positions.interior())
        ref = qp_active_set_reference(quad, lin, positions)
        assert report.converged
        assert np.max(np.abs(report.x - ref)) < 1e-6
        assert report.value == pytest.approx(obj.value(ref), abs=1e-6)


def test_solve_strict_feasibility_along_the_run():
    # the solver must only ever evaluate the oracle at strictly feasible
    # points; a recording wrapper observes every query
    positions, objective, _ = warmed_objective(seed=5, n_antennas=4, n_users=3)
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

    report = solve_pdip(Spy(), positions, positions.interior())
    assert np.max(positions.values(report.x)) < 0
    assert report.status in ("converged", "max_iters", "line_search_stall",
                             "no_progress")
    assert seen
    assert all(np.max(positions.values(x)) < 0 for x in seen)


def test_solve_evaluates_each_point_once(monkeypatch):
    # the gradient is never taken twice at one point, and the residuals are
    # evaluated once per strictly feasible trial point; x0's dual residual is
    # built from its one gradient, which the warm attempt and the cold rerun
    # share (this instance falls back). It also rejects some feasible trial
    # points in its line search
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

    class SpyConstraints(PositionSet):
        def values(self, x):
            f = super().values(x)
            if np.max(f) < 0:
                feasible_points.add(np.asarray(x, dtype=float).tobytes())
            return f

    residual_calls = []

    def counted_residuals(*args):
        residual_calls.append(args[2].tobytes())
        return residuals(*args)

    step_points = []

    def counted_step(objective, positions, x, *args):
        step_points.append(x.tobytes())
        return newton_step(objective, positions, x, *args)

    monkeypatch.setattr("fluidaircomp.pdip.residuals", counted_residuals)
    monkeypatch.setattr("fluidaircomp.pdip.newton_step", counted_step)
    cons = SpyConstraints(positions.n_antennas, positions.aperture, positions.min_spacing)
    x0 = positions.interior()
    report = solve_pdip(Counting(), cons, x0)
    assert step_points.count(x0.tobytes()) == 2  # warm attempt, cold rerun
    assert len(residual_calls) > report.iterations
    assert len(gradient_points) == len(set(gradient_points))
    assert x0.tobytes() in gradient_points
    assert len(residual_calls) == len(feasible_points) - 1
    assert set(residual_calls) == feasible_points - {x0.tobytes()}


def cold_run(objective, positions, x0):
    """The cold start mu = 1 from x0 with the full iteration budget."""
    return _newton_loop(objective, positions, x0, positions.values(x0),
                        objective.gradient(x0), 1.0, _MAX_ITERS,
                        [objective.value(x0)])


@pytest.mark.parametrize("seed", range(6))
def test_resolve_from_converged_point_is_warm(seed):
    # a start that already meets the KKT tolerances needs no barrier schedule:
    # the fitted multipliers put it at the stop gap
    positions, objective, _ = warmed_objective(seed=seed, n_antennas=5, n_users=4)
    first = solve_pdip(objective, positions, positions.interior())
    assert first.converged
    again = solve_pdip(objective, positions, first.x)
    assert again.converged
    assert again.iterations <= 2
    assert again.value == pytest.approx(first.value, rel=1e-8)


def test_failed_warm_attempt_returns_the_cold_run():
    # from the interior start of this instance the warm attempt spends its
    # budget of ceil(log10(6 / 1e-8)) = 9 steps without converging
    positions, objective, _ = warmed_objective(seed=2, n_antennas=5, n_users=3)
    x0 = positions.interior()
    report = solve_pdip(objective, positions, x0)
    cold = cold_run(objective, positions, x0)
    assert cold.converged
    assert np.array_equal(report.x, cold.x)
    assert report.status == cold.status
    assert report.dual_residual == cold.dual_residual
    assert report.duality_gap == cold.duality_gap
    assert report.iterations == 9 + cold.iterations
    assert report.value_history[0] == cold.value_history[0]
    assert report.value_history[-cold.iterations:] == cold.value_history[1:]


def test_zero_barrier_gradient_start_is_the_cold_start(monkeypatch):
    # at the centre of a 1-D box Df^T (1/(-f)) = 0, so no multiplier scale
    # can be fitted: the call is the cold start nu0 = 1/(-f(x0))
    obj = QuadraticObjective(np.eye(1), np.array([-0.6]), 0.09)
    box = unit_box()
    x0 = np.array([0.5])
    nus = []

    def counted_step(objective, positions, x, f, nu, *args):
        nus.append(nu.copy())
        return newton_step(objective, positions, x, f, nu, *args)

    monkeypatch.setattr("fluidaircomp.pdip.newton_step", counted_step)
    report = solve_pdip(obj, box, x0)
    assert np.array_equal(nus[0], 1.0 / -box.values(x0))
    assert len(nus) == report.iterations
    cold = cold_run(obj, box, x0)
    assert report.converged
    assert np.array_equal(report.x, cold.x)
    assert report.value_history == cold.value_history
    assert report.duality_gap == cold.duality_gap


def test_solve_deterministic():
    positions, objective, _ = warmed_objective(seed=6, n_antennas=5, n_users=4)
    x0 = positions.interior()
    a = solve_pdip(objective, positions, x0)
    b = solve_pdip(objective, positions, x0)
    assert np.array_equal(a.x, b.x)
    assert a.value_history == b.value_history


def test_solve_apv_instance_reaches_grid_optimum():
    # seeded non-convex instance where the interior-point run lands in the
    # global basin; the dense grid bounds the optimum from above
    positions, objective, _ = warmed_objective(seed=3, n_antennas=3, n_users=2)
    x0 = positions.interior()
    report = solve_pdip(objective, positions, x0)
    resolution = 0.015
    _, g_best = grid_search_apv(objective, positions.aperture,
                                positions.min_spacing, resolution)
    assert objective.value(report.x) <= g_best + 1e-4
    assert objective.value(report.x) <= objective.value(x0)


def round_one_objective(n_antennas, n_users, snr_db, seed):
    """(positions, objective, x0) of an AO run's first pdip call: one m and
    one b update from b = sqrt(P) at the interior start."""
    scenario = sample_scenario(n_antennas, n_users, snr_db, seed)
    positions = scenario.positions
    x0 = positions.interior()
    h = channel_matrix(scenario, x0)
    b = np.sqrt(scenario.powers).astype(complex)
    m = update_m(b, h, scenario.sigma2)
    b = update_b(m, h, scenario.powers)
    return positions, effective_weights(b, m, scenario, x0, h), x0


def count_residuals(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(None)
        return residuals(*args)

    monkeypatch.setattr("fluidaircomp.pdip.residuals", counted)
    return calls


def assert_flat_run_stops(report, positions, calls, value):
    # the run used to spend all its Newton steps, about 19 backtracks each,
    # without moving the KKT residual norm; it stops early at the same g
    assert report.status == "no_progress"
    assert not report.converged
    assert report.iterations <= 40
    assert len(calls) <= 400
    assert np.max(positions.values(report.x)) < 0
    assert report.value == pytest.approx(value, rel=1e-7)


def test_flat_run_ends_no_progress_on_array_n20_round_one(monkeypatch):
    # the first pdip call of the N = 20, K = 40, -10 dB, seed 0 cell: its
    # warm attempt fails and the cold run stalled for 200 steps (210 in all,
    # 3977 residual evaluations)
    positions, objective, x0 = round_one_objective(20, 40, -10.0, 0)
    calls = count_residuals(monkeypatch)
    report = solve_pdip(objective, positions, x0)
    assert_flat_run_stops(report, positions, calls, 2.91443212271)


def test_flat_cold_run_ends_no_progress_at_seed_8203(monkeypatch):
    # the cold run of the N = K = 10, 0 dB, seed 8203 first call: g held
    # 0.30920 to 6 digits for 190 of its 200 steps (3762 evaluations)
    positions, objective, x0 = round_one_objective(10, 10, 0.0, 8203)
    calls = count_residuals(monkeypatch)
    report = cold_run(objective, positions, x0)
    assert_flat_run_stops(report, positions, calls, 0.309199779353)
