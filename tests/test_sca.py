import numpy as np
import pytest

from oracles import (cross_lower_bound, cross_term, grid_search_refined,
                     power_term, power_upper_bound, summed_bounds)
from util import random_weights, warmed_objective

import fluidaircomp.sca
from fluidaircomp.apv_objective import ApvObjective
from fluidaircomp.model import PositionSet
from fluidaircomp.pdip import SolveReport
from fluidaircomp.sca import build_surrogate, solve_sca


def quad_eval(quad, lin, const, x):
    return float(x @ quad @ x - lin @ x + const)


def test_bounds_zero_weights_give_zero_coefficients():
    weights = ApvObjective(np.zeros((1, 3)), np.zeros((1, 3)), np.ones(1))
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
        # the oracle bounds are x^T quad x - lin^T x + const
        for got, ref in zip((surrogate.quad, -surrogate.lin, surrogate.const),
                            summed_bounds(weights, anchor)):
            scale = 1.0 + np.max(np.abs(ref))
            assert np.max(np.abs(got - ref)) <= 1e-10 * scale


def test_surrogate_dominates_residual_sum():
    rng = np.random.default_rng(44)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        k_users = int(rng.integers(1, 4))
        obj = random_weights(rng, k_users, n)
        anchor = rng.uniform(0, n, n)
        surrogate = build_surrogate(obj, anchor)
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
    obj = ApvObjective(np.array([[0.8]]), np.array([[phi * 0.6]]), np.array([phi]))
    report = solve_sca(obj, PositionSet(1, 1.0, 0.0), x0)
    assert report.converged
    assert report.iterations == 1
    assert report.x[0] == pytest.approx(0.6, abs=1e-5)


def test_solve_monotone_true_objective():
    rng = np.random.default_rng(46)
    for seed in range(100):
        n = int(rng.integers(2, 5))
        positions, objective, x0 = warmed_objective(seed=seed, n_antennas=n,
                                            n_users=int(rng.integers(1, 5)))
        x, history = x0, [objective.value(x0)]
        for _ in range(25):
            report = solve_sca(objective, positions, x)
            x = report.x
            history.append(report.value)
        assert np.all(np.diff(history) <= 1e-12)
        assert np.max(positions.constraints.values(x)) <= 1e-12


def test_solve_descends_from_boundary_start():
    positions, objective, _ = warmed_objective(seed=9, n_antennas=4, n_users=3)
    x0 = np.linspace(0.0, positions.aperture, 4)  # touches both segment ends
    report = solve_sca(objective, positions, x0)
    assert report.value <= objective.value(x0) + 1e-12


def sca_until_stalled(objective, positions, x0, max_steps=200):
    """Repeat SCA steps until the iterate moves by less than 1e-6."""
    x = x0
    for _ in range(max_steps):
        report = solve_sca(objective, positions, x)
        step = float(np.max(np.abs(report.x - x)))
        x = report.x
        if step < 1e-6:
            break
    return report


def test_solve_never_beats_grid_optimum():
    positions, objective, x0 = warmed_objective(seed=12, n_antennas=3, n_users=2)
    report = sca_until_stalled(objective, positions, x0)
    _, g_best = grid_search_refined(objective, positions.aperture,
                                    positions.min_spacing, resolution=0.02)
    assert report.value >= g_best - 1e-3
    assert report.value <= objective.value(x0)


def test_inner_qp_failure_is_reported(monkeypatch):
    # an unsolvable inner problem must surface with the inner status
    positions, objective, x0 = warmed_objective(seed=13, n_antennas=3, n_users=2)

    def not_converged(qp, constraints, start):
        return SolveReport(x=start, iterations=0, status="max_iters",
                           value_history=[qp.value(start)])

    monkeypatch.setattr("fluidaircomp.sca.solve_pdip", not_converged)
    report = solve_sca(objective, positions, x0)
    assert not report.converged
    assert report.status == "inner_qp_max_iters"
    assert report.iterations == 0
    assert np.array_equal(report.x, x0)


def test_solve_takes_exactly_one_step(monkeypatch):
    # from x0 this instance needs many steps to stall, but one call is one
    # surrogate and one inner QP; the driver repeats the call per round
    positions, objective, x0 = warmed_objective(seed=12, n_antennas=3, n_users=2)
    assert float(np.max(np.abs(sca_until_stalled(objective, positions, x0).x - x0))) > 1e-3
    calls = {"build_surrogate": 0, "solve_pdip": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(f"fluidaircomp.sca.{name}",
                            counted(name, getattr(fluidaircomp.sca, name)))
    report = solve_sca(objective, positions, x0)
    assert calls == {"build_surrogate": 1, "solve_pdip": 1}
    assert report.iterations == 1
    assert report.value_history == [objective.value(x0), report.value]
