import numpy as np
import pytest

from oracles import (cross_lower_bound, cross_term, grid_search_refined,
                     power_term, power_upper_bound, summed_bounds)
from util import random_objective, random_weights, warmed_objective

from fluidaircomp.apv_objective import ApvObjective, EffectiveWeights
from fluidaircomp.sca import ScaOptions, build_surrogate, solve_sca


def quad_eval(quad, lin, const, x):
    return float(x @ quad @ x - lin @ x + const)


def test_bounds_zero_weights_give_zero_coefficients():
    weights = EffectiveWeights(np.zeros((1, 3)), np.zeros((1, 3)), np.ones(1))
    anchor = np.array([0.0, 1.0, 2.0])
    for build in (power_upper_bound, cross_lower_bound):
        parts = build(weights, 0, anchor)
        assert all(np.all(p == 0) for p in parts)
    surrogate = build_surrogate(weights, anchor)
    assert np.all(surrogate.quad == 0) and np.all(surrogate.lin == 0)
    assert surrogate.const == 1.0


def test_power_bound_tight_and_majorizing():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        weights = random_weights(rng, int(rng.integers(1, 4)), n)
        anchor = rng.uniform(0, n, n)
        for k in range(weights.n_users):
            quad, lin, const = power_upper_bound(weights, k, anchor)
            at_anchor = quad_eval(quad, lin, const, anchor)
            assert at_anchor == pytest.approx(power_term(weights, k, anchor),
                                              abs=1e-9 * (1 + abs(at_anchor)))
            for _ in range(20):
                x = rng.uniform(-1, n + 1, n)
                assert quad_eval(quad, lin, const, x) >= power_term(weights, k, x) - 1e-9


def test_cross_bound_tight_and_minorizing():
    rng = np.random.default_rng(43)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        weights = random_weights(rng, int(rng.integers(1, 4)), n)
        anchor = rng.uniform(0, n, n)
        for k in range(weights.n_users):
            quad, lin, const = cross_lower_bound(weights, k, anchor)
            bound_at = float(-anchor @ quad @ anchor + 2 * lin @ anchor + 2 * const)
            assert bound_at == pytest.approx(cross_term(weights, k, anchor),
                                             abs=1e-9 * (1 + abs(bound_at)))
            for _ in range(20):
                x = rng.uniform(-1, n + 1, n)
                lower = float(-x @ quad @ x + 2 * lin @ x + 2 * const)
                assert lower <= cross_term(weights, k, x) + 1e-9


def test_surrogate_equals_sum_of_per_user_bounds():
    rng = np.random.default_rng(47)
    for trial in range(200):
        n = 1 if trial % 7 == 0 else int(rng.integers(1, 7))
        k_users = 1 if trial % 5 == 0 else int(rng.integers(1, 6))
        weights = random_weights(rng, k_users, n,
                                 zero_frac=0.3 if trial % 3 == 0 else 0.0)
        anchor = rng.uniform(-1, n + 1, n)
        surrogate = build_surrogate(weights, anchor)
        for got, ref in zip((surrogate.quad, surrogate.lin, surrogate.const),
                            summed_bounds(weights, anchor)):
            scale = 1.0 + np.max(np.abs(ref))
            assert np.max(np.abs(got - ref)) <= 1e-10 * scale


def test_surrogate_dominates_residual_sum():
    rng = np.random.default_rng(44)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        k_users = int(rng.integers(1, 4))
        obj = random_objective(rng, k_users, n)
        anchor = rng.uniform(0, n, n)
        surrogate = build_surrogate(obj.weights, anchor)
        true_at_anchor = obj.value(anchor) + k_users
        assert surrogate.value(anchor) == pytest.approx(
            true_at_anchor, abs=1e-8 * (1 + abs(true_at_anchor)))
        for _ in range(30):
            x = rng.uniform(-1, n + 1, n)
            assert surrogate.value(x) >= obj.value(x) + k_users - 1e-8


def test_surrogate_curvature_is_psd():
    rng = np.random.default_rng(45)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        weights = random_weights(rng, int(rng.integers(1, 5)), n, zero_frac=0.1)
        anchor = rng.uniform(0, n, n)
        surrogate = build_surrogate(weights, anchor)
        assert np.allclose(surrogate.quad, surrogate.quad.T, atol=1e-9)
        assert np.linalg.eigvalsh(surrogate.quad).min() >= -1e-9


def test_solve_returns_fixed_point_immediately():
    # single antenna, weight phase aligned with the anchor: the surrogate's
    # unconstrained minimizer is the anchor itself
    phi = 2.0 * np.pi * np.cos(1.2)
    x0 = np.array([0.6])
    weights = EffectiveWeights(np.array([[0.8]]), np.array([[phi * 0.6]]),
                               np.array([phi]))
    obj = ApvObjective(weights, 1.0, 0.0)
    report = solve_sca(obj, x0)
    assert report.converged
    assert report.iterations == 1
    assert report.x[0] == pytest.approx(0.6, abs=1e-5)


def test_solve_monotone_true_objective():
    rng = np.random.default_rng(46)
    for seed in range(100):
        n = int(rng.integers(2, 5))
        _, objective, x0 = warmed_objective(seed=seed, n_antennas=n,
                                            n_users=int(rng.integers(1, 5)))
        report = solve_sca(objective, x0, ScaOptions(max_outer=25))
        history = np.asarray(report.value_history)
        assert np.all(np.diff(history) <= 1e-12)
        assert np.max(objective.constraints.values(report.x)) <= 1e-12


def test_solve_descends_from_boundary_start():
    _, objective, _ = warmed_objective(seed=9, n_antennas=4, n_users=3)
    x0 = np.linspace(0.0, objective.aperture, 4)  # touches both segment ends
    report = solve_sca(objective, x0)
    assert report.value <= objective.value(x0) + 1e-12


def test_solve_never_beats_grid_optimum():
    _, objective, x0 = warmed_objective(seed=12, n_antennas=3, n_users=2)
    report = solve_sca(objective, x0)
    _, g_best = grid_search_refined(objective, objective.aperture,
                                    objective.min_spacing, resolution=0.02)
    assert report.value >= g_best - 1e-3
    assert report.value <= objective.value(x0)


def test_inner_qp_failure_is_reported():
    # an unsolvable inner problem must surface with the outer iteration index
    _, objective, x0 = warmed_objective(seed=13, n_antennas=3, n_users=2)
    options = ScaOptions()
    options.pdip.max_iters = 0  # inner solver cannot converge
    report = solve_sca(objective, x0, options)
    assert not report.converged
    assert report.status.startswith("inner_qp_")
    assert report.status.endswith("_at_outer_0")
