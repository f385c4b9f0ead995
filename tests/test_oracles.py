"""Self-checks for the reference oracles themselves."""

import numpy as np
import pytest

from oracles import (fd_gradient, fd_hessian, grid_search_apv,
                     qp_active_set_reference)
from util import warmed_objective

from fluidaircomp.apv_objective import ApvObjective
from fluidaircomp.model import PositionSet
from fluidaircomp.pdip import solve_pdip
from fluidaircomp.pgd import project_feasible
from fluidaircomp.sca import build_surrogate


def test_fd_gradient_quadratic():
    rng = np.random.default_rng(0)
    q = rng.normal(size=(4, 4))
    q = q + q.T
    x = rng.normal(size=4)
    grad = fd_gradient(lambda v: float(v @ q @ v), x, h=1e-5)
    assert np.max(np.abs(grad - 2 * q @ x)) < 1e-7


def test_fd_hessian_quadratic():
    rng = np.random.default_rng(1)
    q = rng.normal(size=(3, 3))
    q = q + q.T
    hess = fd_hessian(lambda v: float(v @ q @ v), rng.normal(size=3), h=1e-4)
    assert np.max(np.abs(hess - 2 * q)) < 1e-5


def test_fd_gradient_second_order_in_h():
    x = np.array([0.3, -0.2])

    def fun(v):
        return float(np.sin(3 * v[0]) * np.exp(v[1]))

    exact = np.array([3 * np.cos(3 * x[0]) * np.exp(x[1]),
                      np.sin(3 * x[0]) * np.exp(x[1])])
    err_h = np.max(np.abs(fd_gradient(fun, x, h=1e-3) - exact))
    err_h2 = np.max(np.abs(fd_gradient(fun, x, h=5e-4) - exact))
    assert err_h2 < err_h / 3.0  # ~4x shrink for halved h


def test_grid_search_single_antenna_scan():
    # one antenna, one user: g(x) = w^2 - 2 w cos(phi x - ang), minimized where
    # the cosine peaks; exact location ang/phi is resolvable to the grid step
    phi = 2.0 * np.pi * np.cos(1.1)
    target = 0.37
    obj = ApvObjective(np.array([[0.9]]), np.array([[phi * target]]), np.array([phi]))
    x_best, g_best = grid_search_apv(obj, 1.0, 0.0, resolution=1e-3)
    assert x_best[0] == pytest.approx(target, abs=1e-3)
    assert g_best == pytest.approx(obj.value(np.array([target])), abs=1e-4)


def test_grid_search_constant_objective_returns_first_point():
    obj = ApvObjective(np.zeros((1, 2)), np.zeros((1, 2)), np.ones(1))
    x_best, g_best = grid_search_apv(obj, 2.0, 0.5, resolution=0.1)
    assert g_best == 0.0
    assert np.allclose(x_best, [0.0, 0.5])


def test_grid_search_sandwich_with_pdip():
    positions, objective, _ = warmed_objective(seed=8, n_antennas=2, n_users=2)
    x0 = positions.interior()
    report = solve_pdip(objective, positions.constraints, x0)
    resolution = 0.01
    _, g_best = grid_search_apv(objective, positions.aperture,
                                positions.min_spacing, resolution)
    slack = resolution * 2 * _gradient_bound(objective)
    assert g_best <= objective.value(report.x) + slack
    assert objective.value(report.x) <= objective.value(x0)


def _gradient_bound(objective):
    w = objective.magnitudes
    phi = np.abs(objective.spatial_freqs)
    w0 = w.sum(axis=1)
    return float(np.sum(2 * phi * (w0**2 + w0)))


def test_qp_reference_unconstrained_interior():
    rng = np.random.default_rng(2)
    root = rng.normal(size=(3, 3))
    quad = root @ root.T + 0.5 * np.eye(3)
    target = np.array([5.0, 10.0, 15.0])  # strictly interior optimum
    lin = -2.0 * quad @ target
    cons = PositionSet(3, 30.0, 0.5).constraints
    x = qp_active_set_reference(quad, lin, cons)
    assert np.max(np.abs(x - target)) < 1e-8
    assert np.max(np.abs(2 * quad @ x + lin)) < 1e-7  # zero gradient


def test_qp_reference_agrees_with_pava_projection():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.uniform(-1, 3, 2)
        positions = PositionSet(2, 2.0, 0.5)
        ref = qp_active_set_reference(np.eye(2), -2 * v, positions.constraints)
        assert np.max(np.abs(ref - project_feasible(v, positions))) < 1e-8


def test_qp_reference_agrees_with_pdip_on_surrogate_qp():
    positions, objective, x0 = warmed_objective(seed=4, n_antennas=3, n_users=2)
    surrogate = build_surrogate(objective, x0)
    cons = positions.constraints
    report = solve_pdip(surrogate, cons, positions.interior())
    ref = qp_active_set_reference(surrogate.quad, surrogate.lin, cons)
    assert report.converged
    assert np.max(np.abs(report.x - ref)) < 1e-6


def test_grid_search_rejects_large_n():
    obj = ApvObjective(np.zeros((1, 4)), np.zeros((1, 4)), np.ones(1))
    with pytest.raises(ValueError):
        grid_search_apv(obj, 4.0, 0.5, resolution=0.5)
