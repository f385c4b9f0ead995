"""Quick invariant suite behind the `check` CLI subcommand.

These are fast sanity checks on the analytic formulas and the optimizers; the
heavyweight brute-force references live in the test suite.
"""

from __future__ import annotations

import numpy as np

from .apv_objective import effective_weights
from .closed_form import update_b, update_m
from .driver import METHODS, AoOptions, ao_optimize
from .model import (InfeasibleStartError, PositionSet, channel_matrix, mse, sample_scenario,
                    steering)
from .pgd import project_feasible
from .sca import build_surrogate


def _fd_gradient(fun, x, h=1e-6):
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (fun(x + step) - fun(x - step)) / (2.0 * h)
    return grad


def _random_state(scenario, rng):
    b = rng.normal(size=scenario.n_users) + 1j * rng.normal(size=scenario.n_users)
    b *= np.sqrt(scenario.powers) / np.maximum(np.abs(b), 1e-12)
    m = (rng.normal(size=scenario.n_antennas)
         + 1j * rng.normal(size=scenario.n_antennas)) / np.sqrt(scenario.n_antennas)
    return b, m


def _check_steering(rng):
    x = np.sort(rng.uniform(0, 5, 6))
    freqs = 2 * np.pi * np.cos(rng.uniform(1e-3, np.pi - 1e-3, 1))
    mods = np.abs(steering(x, freqs))
    return np.max(np.abs(mods - 1.0)) < 1e-12, "unit modulus"


def _check_mse_phase_invariance(rng):
    scenario = sample_scenario(4, 3, 0.0, seed=int(rng.integers(1 << 31)))
    h = channel_matrix(scenario, np.linspace(0, scenario.aperture, 4))
    b, m = _random_state(scenario, rng)
    base = mse(b, m, h, scenario.sigma2)
    psi = np.exp(1j * rng.uniform(0, 2 * np.pi))
    rotated = mse(b * psi, m * psi, h, scenario.sigma2)
    return abs(base - rotated) < 1e-12 * (1 + abs(base)), "common phase rotation"


def _check_b_update(rng):
    scenario = sample_scenario(4, 6, -5.0, seed=int(rng.integers(1 << 31)))
    h = channel_matrix(scenario, np.linspace(0, scenario.aperture, 4))
    _, m = _random_state(scenario, rng)
    b = update_b(m, h, scenario.powers)
    feasible = np.all(np.abs(b) ** 2 <= scenario.powers + 1e-12)
    before = mse(np.sqrt(scenario.powers).astype(complex), m, h, scenario.sigma2)
    after = mse(b, m, h, scenario.sigma2)
    return feasible and after <= before + 1e-9, "power feasibility and descent"


def _check_m_update(rng):
    scenario = sample_scenario(5, 4, 0.0, seed=int(rng.integers(1 << 31)))
    h = channel_matrix(scenario, np.linspace(0, scenario.aperture, 5))
    b, _ = _random_state(scenario, rng)
    m_star = update_m(b, h, scenario.sigma2)
    base = mse(b, m_star, h, scenario.sigma2)
    for _ in range(50):
        delta = rng.normal(size=5) + 1j * rng.normal(size=5)
        delta *= 1e-3 / np.linalg.norm(delta)
        if mse(b, m_star + delta, h, scenario.sigma2) < base - 1e-15:
            return False, "perturbation beat the least-squares decoder"
    return True, "local minimality probe"


def _check_objective_derivatives(rng):
    scenario = sample_scenario(5, 3, 0.0, seed=int(rng.integers(1 << 31)))
    b, m = _random_state(scenario, rng)
    obj = effective_weights(b, m, scenario)
    point = np.sort(rng.uniform(0, scenario.aperture, 5))
    grad = obj.gradient(point)
    approx = _fd_gradient(obj.value, point)
    err = np.max(np.abs(grad - approx)) / (1.0 + np.max(np.abs(approx)))
    return err < 1e-5, f"gradient vs finite differences (err {err:.2e})"


def _check_objective_definition(rng):
    scenario = sample_scenario(4, 3, 0.0, seed=int(rng.integers(1 << 31)))
    x = np.sort(rng.uniform(0, scenario.aperture, 4))
    b, m = _random_state(scenario, rng)
    obj = effective_weights(b, m, scenario)
    direct = 0.0
    for k in range(scenario.n_users):
        h_k = scenario.alphas[k] * np.exp(2j * np.pi * np.cos(scenario.thetas[k]) * x)
        direct += abs(np.vdot(m, h_k) * b[k] - 1.0) ** 2
    err = abs(obj.value(x) - direct)
    return err < 1e-9 * (1 + abs(direct)), "g equals the residual sum"


def _check_surrogate(rng):
    scenario = sample_scenario(4, 3, 0.0, seed=int(rng.integers(1 << 31)))
    b, m = _random_state(scenario, rng)
    obj = effective_weights(b, m, scenario)
    anchor = np.sort(rng.uniform(0, scenario.aperture, 4))
    surrogate = build_surrogate(obj, anchor)
    tight = abs(surrogate.value(anchor) - obj.value(anchor))
    if tight > 1e-8 * (1 + abs(surrogate.value(anchor))):
        return False, "surrogate not tight at anchor"
    for _ in range(200):
        x = np.sort(rng.uniform(0, scenario.aperture, 4))
        if surrogate.value(x) < obj.value(x) - 1e-9:
            return False, "surrogate dipped below the true objective"
    return True, "tightness and majorization sample"


def _check_projection(rng):
    aperture, spacing = 5.0, 0.5
    positions = PositionSet(6, aperture, spacing)
    for _ in range(50):
        v = rng.uniform(-2, aperture + 2, 6)
        p = project_feasible(v, positions)
        again = project_feasible(p, positions)
        if np.max(np.abs(again - p)) > 1e-13:  # identity up to ramp ulps
            return False, "projection not idempotent"
        try:
            positions.check(p)
        except InfeasibleStartError:
            return False, "projection left the feasible set"
    return True, "idempotent and feasible"


def _check_ao_monotone(rng):
    seed = int(rng.integers(1 << 31))
    scenario = sample_scenario(4, 3, -5.0, seed=seed)
    for method in METHODS:
        report = ao_optimize(scenario, AoOptions(method=method, max_rounds=15))
        hist = np.asarray(report.mse_history)
        if np.any(np.diff(hist) > 1e-9):
            return False, f"MSE increased under {method}"
    return True, "MSE non-increasing for all methods"


_CHECKS = (
    ("steering kernel modulus", _check_steering),
    ("mse phase invariance", _check_mse_phase_invariance),
    ("b update", _check_b_update),
    ("m update", _check_m_update),
    ("position objective gradient", _check_objective_derivatives),
    ("position objective identity", _check_objective_definition),
    ("convex surrogate", _check_surrogate),
    ("feasible projection", _check_projection),
    ("alternating optimization", _check_ao_monotone),
)


def run_quick_checks(seed: int = 0) -> int:
    """Run every quick check, printing a PASS/FAIL line each; returns the failures."""
    rng = np.random.default_rng(seed)
    failures = 0
    for name, check in _CHECKS:
        ok, detail = check(rng)
        if not ok:
            failures += 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return failures
