import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import brute_force_b, update_b_single
from util import random_feasible_positions, random_state

from fluidaircomp.closed_form import update_b, update_m
from fluidaircomp.driver import METHODS, AoOptions, ao_optimize
from fluidaircomp.model import Scenario, channel_matrix, mse, sample_scenario


def test_b_single_interior_optimum():
    # |m^H h| = 2 with budget 1: the unconstrained inverse is feasible
    m = np.array([2.0 + 0j])
    h = np.array([1.0 + 0j])
    b = update_b_single(m, h, 1.0)
    assert abs(b) == pytest.approx(0.5)
    assert abs(complex(np.vdot(m, h)) * b - 1.0) < 1e-12


def test_b_single_power_limited():
    # |m^H h| = 0.5 with budget 1: multiplier 0.25 pushes |b| onto sqrt(P)
    m = np.array([0.5 + 0j])
    h = np.array([1.0 + 0j])
    b = update_b_single(m, h, 1.0)
    assert abs(b) == pytest.approx(1.0)
    ref = brute_force_b(m, h, 1.0)
    assert abs(abs(b) - abs(ref)) < 1e-2


def test_b_single_zero_channel_convention():
    assert update_b_single(np.array([0.0 + 0j]), np.array([1.0 + 0j]), 2.0) == 0j


def test_b_single_feasibility_and_slackness():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        m = rng.normal(size=n) + 1j * rng.normal(size=n)
        h = rng.normal(size=n) + 1j * rng.normal(size=n)
        p_max = float(rng.uniform(0.25, 4.0))
        b = update_b_single(m, h, p_max)
        assert abs(b) ** 2 <= p_max + 1e-12
        c = abs(complex(np.vdot(m, h)))
        mu = max(c / np.sqrt(p_max) - c * c, 0.0)
        assert abs(mu * (abs(b) ** 2 - p_max)) < 1e-9


def test_b_update_matches_per_user_oracle():
    # the vectorized update against the scalar closed form, user by user
    rng = np.random.default_rng(12)
    for _ in range(200):
        scenario = sample_scenario(int(rng.integers(1, 6)), int(rng.integers(1, 8)),
                                   rng.uniform(-10, 10), seed=int(rng.integers(1 << 31)))
        x = random_feasible_positions(rng, scenario.n_antennas, scenario.aperture,
                                      scenario.min_spacing)
        _, m = random_state(rng, scenario)
        h = channel_matrix(scenario, x)
        b = update_b(m, h, scenario.powers)
        for k in range(scenario.n_users):
            ref = update_b_single(m, h[:, k], scenario.powers[k])
            assert abs(b[k] - ref) <= 1e-12 * (1.0 + abs(ref))


def test_b_update_symmetry_for_identical_users():
    scenario = Scenario(3, [1.0, 1.0], [1.2, 1.2], [1.0, 1.0], 1.0, 3.0, 0.5)
    h = channel_matrix(scenario, np.linspace(0, scenario.aperture, 3))
    m = np.array([0.3 + 0.1j, -0.2 + 0.4j, 0.5 - 0.3j])
    b = update_b(m, h, scenario.powers)
    assert b[0] == pytest.approx(b[1])


def test_updates_never_increase_mse():
    # exact subproblem solves must descend; 1000 random seeded instances
    rng = np.random.default_rng(11)
    for _ in range(1000):
        seed = int(rng.integers(1 << 31))
        scenario = sample_scenario(int(rng.integers(1, 6)), int(rng.integers(1, 8)),
                                   rng.uniform(-10, 10), seed=seed)
        x = random_feasible_positions(rng, scenario.n_antennas, scenario.aperture,
                                      scenario.min_spacing)
        h = channel_matrix(scenario, x)
        b_old, m_old = random_state(rng, scenario)
        base = mse(b_old, m_old, h, scenario.sigma2)
        b_new = update_b(m_old, h, scenario.powers)
        after_b = mse(b_new, m_old, h, scenario.sigma2)
        assert after_b <= base + 1e-9
        assert np.all(np.abs(b_new) ** 2 <= scenario.powers + 1e-12)
        m_new = update_m(b_new, h, scenario.sigma2)
        assert mse(b_new, m_new, h, scenario.sigma2) <= after_b + 1e-9


def test_b_update_exact_inversion_when_feasible():
    # single user, strong effective channel: the residual vanishes entirely
    scenario = sample_scenario(2, 1, 30.0, seed=1)
    h = channel_matrix(scenario, np.linspace(0, scenario.aperture, 2))
    m = h[:, 0]  # matched decoder, |m^H h| >> 1/sqrt(P)
    b = update_b(m, h, scenario.powers)
    residual = (m.conj() @ h)[0] * b[0] - 1.0
    assert abs(residual) < 1e-12


def test_m_update_scalar_wiener():
    scenario = Scenario(1, [1.0], [np.pi / 2], [1.0], 1.0, 0.0, 0.0)
    h = channel_matrix(scenario, np.array([0.0]))
    m = update_m(np.array([1.0 + 0j]), h, scenario.sigma2)
    assert m[0] == pytest.approx(0.5)
    assert mse(np.array([1.0 + 0j]), m, h, scenario.sigma2) == pytest.approx(0.5)


def test_m_update_zero_b_gives_zero():
    scenario = sample_scenario(4, 3, 0.0, seed=2)
    h = channel_matrix(scenario, np.linspace(0, scenario.aperture, 4))
    m = update_m(np.zeros(3, dtype=complex), h, scenario.sigma2)
    assert np.allclose(m, 0.0)


def test_m_update_local_minimality_probe():
    rng = np.random.default_rng(1234)
    scenario = sample_scenario(4, 3, -3.0, seed=99)
    x = random_feasible_positions(rng, 4, scenario.aperture, scenario.min_spacing)
    h = channel_matrix(scenario, x)
    b, _ = random_state(rng, scenario)
    m_star = update_m(b, h, scenario.sigma2)
    base = mse(b, m_star, h, scenario.sigma2)
    for _ in range(100):
        delta = rng.normal(size=4) + 1j * rng.normal(size=4)
        delta *= 1e-3 / np.linalg.norm(delta)
        assert mse(b, m_star + delta, h, scenario.sigma2) >= base - 1e-15


def test_m_update_solves_the_normal_equations():
    # at -10..10 dB update_m takes its direct branch, and its m must meet
    # (sigma2*I + W W^H) m = W 1 up to the rounding of a backward-stable solve
    rng = np.random.default_rng(3)
    eps = np.finfo(float).eps
    for _ in range(20):
        scenario = sample_scenario(3, 4, rng.uniform(-10, 10),
                                   seed=int(rng.integers(1 << 31)))
        x = random_feasible_positions(rng, 3, scenario.aperture, scenario.min_spacing)
        b, _ = random_state(rng, scenario)
        h = channel_matrix(scenario, x)
        weighted = h * b[None, :]
        system = scenario.sigma2 * np.eye(3) + weighted @ weighted.conj().T
        assert scenario.sigma2 > np.sqrt(eps) * system.trace().real
        m = update_m(b, h, scenario.sigma2)
        target = weighted.sum(axis=1)
        residual = np.linalg.norm(system @ m - target)
        scale = np.linalg.norm(system, 2) * np.linalg.norm(m) + np.linalg.norm(target)
        assert residual <= 10 * eps * scale


def test_m_update_requires_positive_noise():
    scenario = sample_scenario(2, 2, 0.0, seed=0)
    h = channel_matrix(scenario, np.linspace(0, 2, 2))
    with pytest.raises(ValueError):
        update_m(np.ones(2, dtype=complex), h, 0.0)


# (K, SNR) cells at N = 10, seed 0; the 130 and 140 dB cells and K = 10 at
# 200 dB lost the MSE's digits in a Cholesky solve of the normal equations
# that neither failed nor warned
@pytest.mark.parametrize("n_users, snr_db",
                         [(2, 130.0), (2, 140.0), (2, 150.0), (2, 200.0), (10, 200.0)],
                         ids=["130.0", "140.0", "150.0", "200.0", "k10-200.0"])
def test_m_update_survives_a_numerically_singular_system(n_users, snr_db):
    scenario = sample_scenario(10, n_users, snr_db, seed=0)
    for method in METHODS:
        report = ao_optimize(scenario, AoOptions(method, 20))
        hist = np.asarray(report.mse_history)
        assert np.all(np.isfinite(hist)), method
        assert np.all(np.diff(hist) <= 1e-9 * hist[:-1]), method


def test_m_update_matches_the_stacked_least_squares_oracle():
    # both branches of update_m against one reference: the lstsq solution of
    # [W^H; sigma I] m = [1; 0]. m itself may differ near the switch, so the
    # MSE at the two solutions is compared
    rng = np.random.default_rng(15)
    direct = 0
    for _ in range(300):
        scenario = sample_scenario(int(rng.integers(1, 12)), int(rng.integers(1, 12)),
                                   rng.uniform(-10, 150), seed=int(rng.integers(1 << 31)))
        n = scenario.n_antennas
        x = random_feasible_positions(rng, n, scenario.aperture, scenario.min_spacing)
        b, _ = random_state(rng, scenario)
        h = channel_matrix(scenario, x)
        weighted = h * b
        stacked = np.vstack([weighted.conj().T, np.sqrt(scenario.sigma2) * np.eye(n)])
        target = np.concatenate([np.ones(b.size), np.zeros(n)])
        reference = mse(b, np.linalg.lstsq(stacked, target, rcond=None)[0], h, scenario.sigma2)
        assert abs(mse(b, update_m(b, h, scenario.sigma2), h, scenario.sigma2) - reference) \
            <= 1e-12 * reference
        trace = np.sum(np.abs(weighted) ** 2)
        direct += scenario.sigma2 > np.sqrt(np.finfo(float).eps) * trace
    assert 0 < direct < 300  # both branches were taken


def test_library_imports_without_scipy():
    # numpy is the one runtime dependency; scipy is a test-only reference
    code = ("import sys, fluidaircomp; "
            "sys.exit(any(name.split('.')[0] == 'scipy' for name in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
