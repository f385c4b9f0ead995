from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_b, update_b_single
from util import random_feasible_positions, random_state

from fluidaircomp.closed_form import update_b, update_m
from fluidaircomp.driver import AoOptions, ao_optimize
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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_b_single_feasibility_and_slackness(seed):
    rng = np.random.default_rng(seed)
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
        b = update_b(m, scenario, x)
        h = channel_matrix(scenario, x)
        for k in range(scenario.n_users):
            ref = update_b_single(m, h[:, k], scenario.powers[k])
            assert abs(b[k] - ref) <= 1e-12 * (1.0 + abs(ref))


def test_b_update_symmetry_for_identical_users():
    scenario = Scenario(3, [1.0, 1.0], [1.2, 1.2], [1.0, 1.0], 1.0, 3.0, 0.5)
    x = np.linspace(0, scenario.aperture, 3)
    m = np.array([0.3 + 0.1j, -0.2 + 0.4j, 0.5 - 0.3j])
    b = update_b(m, scenario, x)
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
        b_old, m_old = random_state(rng, scenario)
        base = mse(b_old, m_old, scenario, x)
        b_new = update_b(m_old, scenario, x)
        after_b = mse(b_new, m_old, scenario, x)
        assert after_b <= base + 1e-9
        assert np.all(np.abs(b_new) ** 2 <= scenario.powers + 1e-12)
        m_new = update_m(b_new, scenario, x)
        assert mse(b_new, m_new, scenario, x) <= after_b + 1e-9


def test_b_update_exact_inversion_when_feasible():
    # single user, strong effective channel: the residual vanishes entirely
    scenario = sample_scenario(2, 1, 30.0, seed=1)
    x = np.linspace(0, scenario.aperture, 2)
    m = channel_matrix(scenario, x)[:, 0]  # matched decoder, |m^H h| >> 1/sqrt(P)
    b = update_b(m, scenario, x)
    residual = (m.conj() @ channel_matrix(scenario, x))[0] * b[0] - 1.0
    assert abs(residual) < 1e-12


def test_m_update_scalar_wiener():
    scenario = Scenario(1, [1.0], [np.pi / 2], [1.0], 1.0, 0.0, 0.0)
    m = update_m(np.array([1.0 + 0j]), scenario, np.array([0.0]))
    assert m[0] == pytest.approx(0.5)
    assert mse(np.array([1.0 + 0j]), m, scenario, np.array([0.0])) == pytest.approx(0.5)


def test_m_update_zero_b_gives_zero():
    scenario = sample_scenario(4, 3, 0.0, seed=2)
    x = np.linspace(0, scenario.aperture, 4)
    m = update_m(np.zeros(3, dtype=complex), scenario, x)
    assert np.allclose(m, 0.0)


def test_m_update_local_minimality_probe():
    rng = np.random.default_rng(1234)
    scenario = sample_scenario(4, 3, -3.0, seed=99)
    x = random_feasible_positions(rng, 4, scenario.aperture, scenario.min_spacing)
    b, _ = random_state(rng, scenario)
    m_star = update_m(b, scenario, x)
    base = mse(b, m_star, scenario, x)
    for _ in range(100):
        delta = rng.normal(size=4) + 1j * rng.normal(size=4)
        delta *= 1e-3 / np.linalg.norm(delta)
        assert mse(b, m_star + delta, scenario, x) >= base - 1e-15


def test_m_update_system_is_positive_definite():
    rng = np.random.default_rng(3)
    for _ in range(20):
        scenario = sample_scenario(3, 4, rng.uniform(-10, 10),
                                   seed=int(rng.integers(1 << 31)))
        x = random_feasible_positions(rng, 3, scenario.aperture, scenario.min_spacing)
        b, _ = random_state(rng, scenario)
        h = channel_matrix(scenario, x)
        weighted = h * b[None, :]
        system = scenario.sigma2 * np.eye(3) + weighted @ weighted.conj().T
        eigs = np.linalg.eigvalsh(system)
        assert eigs.min() >= scenario.sigma2 - 1e-10


def test_m_update_requires_positive_noise():
    # Scenario itself refuses sigma2 <= 0, so poke the guard with a stand-in
    scenario = sample_scenario(2, 2, 0.0, seed=0)
    broken = SimpleNamespace(**{f.name: getattr(scenario, f.name)
                                for f in fields(scenario)})
    broken.sigma2 = 0.0
    with pytest.raises(ValueError):
        update_m(np.ones(2, dtype=complex), broken, np.linspace(0, 2, 2))


@pytest.mark.parametrize("snr_db", [150.0, 200.0])
def test_m_update_survives_a_numerically_singular_system(snr_db):
    # sigma2 below the Gram matrix's rounding: at 200 dB the Cholesky solve
    # fails, at 150 dB it warns that the system is ill-conditioned
    report = ao_optimize(sample_scenario(10, 2, snr_db, seed=0), AoOptions("fpa", 20))
    hist = np.asarray(report.mse_history)
    assert np.all(np.isfinite(hist))
    assert np.all(np.diff(hist) <= 1e-9 * hist[:-1])
