import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import channel, is_feasible_positions

from fluidaircomp.model import (PositionSet, Scenario, channel_matrix, mse,
                                sample_scenario, steering_vector)


def test_steering_zero_position_unit_phase():
    out = steering_vector(np.array([0.0]), 1.0)
    assert out.shape == (1,)
    assert out[0] == pytest.approx(1.0 + 0.0j)


def test_steering_broadside_kills_phase():
    out = steering_vector(np.array([0.5]), np.pi / 2)
    assert abs(out[0] - 1.0) < 1e-12


def test_steering_half_wavelength_endfire():
    out = steering_vector(np.array([0.0, 0.5]), 0.0)
    assert out[0] == pytest.approx(1.0 + 0.0j)
    assert out[1] == pytest.approx(-1.0 + 0.0j, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.001, np.pi - 0.001), st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_steering_unit_modulus(theta, n, seed):
    x = np.sort(np.random.default_rng(seed).uniform(0, 10, n))
    assert np.max(np.abs(np.abs(steering_vector(x, theta)) - 1.0)) < 1e-12


def test_channel_single_antenna_gain():
    scenario = Scenario(1, [2.0], [1.0], [1.0], 1.0, 0.0, 0.0)
    h = channel(scenario, 0, np.array([0.0]))
    assert h[0] == pytest.approx(2.0 + 0.0j)


def test_channel_norm_scales_with_gain():
    rng = np.random.default_rng(0)
    for alpha, n in ((1.0, 4), (0.5, 2)):
        scenario = Scenario(n, [alpha], [rng.uniform(0.1, 3.0)], [1.0], 1.0,
                            float(n), 0.5)
        x = np.sort(rng.uniform(0, n, n))
        assert np.linalg.norm(channel(scenario, 0, x)) == pytest.approx(alpha * np.sqrt(n))


def test_channel_index_out_of_range():
    scenario = sample_scenario(2, 3, 0.0, seed=0)
    with pytest.raises(IndexError):
        channel(scenario, 3, np.array([0.0, 1.0]))


def test_mse_zero_decoder_counts_users():
    scenario = sample_scenario(3, 5, 0.0, seed=1)
    x = scenario.positions.uniform()
    b = np.ones(5, dtype=complex)
    assert mse(b, np.zeros(3, dtype=complex), scenario, x) == pytest.approx(5.0)


def test_mse_perfect_alignment_scalar():
    scenario = Scenario(1, [1.0], [np.pi / 2], [1.0], 1e-12, 0.0, 0.0)
    value = mse(np.array([1.0 + 0j]), np.array([1.0 + 0j]), scenario, np.array([0.0]))
    assert value == pytest.approx(1e-12, abs=1e-15)


def test_mse_direct_substitution():
    scenario = Scenario(1, [1.0], [np.pi / 2], [1.0], 1.0, 0.0, 0.0)
    value = mse(np.array([1.0 + 0j]), np.array([0.5 + 0j]), scenario, np.array([0.0]))
    assert value == pytest.approx(0.5)


def test_mse_dimension_mismatch():
    scenario = sample_scenario(2, 3, 0.0, seed=0)
    x = scenario.positions.uniform()
    with pytest.raises(ValueError):
        mse(np.ones(2, dtype=complex), np.ones(2, dtype=complex), scenario, x)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0, 2 * np.pi))
def test_mse_invariant_under_common_phase(seed, psi):
    rng = np.random.default_rng(seed)
    scenario = sample_scenario(3, 4, 0.0, seed=seed)
    x = np.sort(rng.uniform(0, scenario.aperture, 3))
    b = rng.normal(size=4) + 1j * rng.normal(size=4)
    m = rng.normal(size=3) + 1j * rng.normal(size=3)
    rot = np.exp(1j * psi)
    base = mse(b, m, scenario, x)
    assert mse(b * rot, m * rot, scenario, x) == pytest.approx(base, abs=1e-12 * (1 + base))


def test_mse_lower_bounded_by_noise_term():
    rng = np.random.default_rng(7)
    for _ in range(20):
        scenario = sample_scenario(4, 6, rng.uniform(-10, 10), seed=int(rng.integers(1 << 31)))
        x = np.sort(rng.uniform(0, scenario.aperture, 4))
        b, m = (rng.normal(size=6) + 1j * rng.normal(size=6),
                rng.normal(size=4) + 1j * rng.normal(size=4))
        assert mse(b, m, scenario, x) >= scenario.sigma2 * np.sum(np.abs(m) ** 2) - 1e-12


def test_sample_scenario_deterministic():
    a = sample_scenario(10, 7, -10.0, seed=42)
    b = sample_scenario(10, 7, -10.0, seed=42)
    assert np.array_equal(a.thetas, b.thetas)
    assert np.array_equal(a.alphas, b.alphas)
    assert a.sigma2 == b.sigma2


def test_sample_scenario_seed_sensitivity():
    a = sample_scenario(10, 7, -10.0, seed=1)
    b = sample_scenario(10, 7, -10.0, seed=2)
    assert not np.array_equal(a.thetas, b.thetas)


def test_sample_scenario_geometry_defaults():
    scenario = sample_scenario(10, 3, 0.0, seed=5)
    assert scenario.aperture == pytest.approx(10.0)
    assert scenario.min_spacing == pytest.approx(0.5)
    assert np.all(scenario.thetas > 0) and np.all(scenario.thetas < np.pi)
    assert np.all(scenario.alphas >= 0.5) and np.all(scenario.alphas <= 1.5)


def test_sample_scenario_snr_maps_to_noise():
    assert sample_scenario(2, 2, 10.0, seed=0).sigma2 == pytest.approx(0.1)
    assert sample_scenario(2, 2, -10.0, seed=0).sigma2 == pytest.approx(10.0)


def test_scenario_rejects_bad_geometry():
    with pytest.raises(ValueError):
        Scenario(4, [1, 1], [1, 1], [1, 1], 1.0, 1.0, 0.5)
    # tight in decimals: 3 * 0.1 rounds to 0.30000000000000004 > 0.3
    tight = Scenario(4, [1, 1], [1, 1], [1, 1], 1.0, 0.3, 0.1)
    assert tight.positions.slack == 0


def test_position_set_rejects_non_finite_geometry():
    # NaN compares false, so a NaN tolerance would pass every point as feasible
    for aperture, spacing in ((np.nan, 0.5), (np.inf, 0.5), (3.0, np.nan)):
        with pytest.raises(ValueError):
            PositionSet(3, aperture, spacing)


@pytest.mark.parametrize("field, bad", [
    ("sigma2", np.nan), ("sigma2", np.inf), ("aperture", np.nan),
    ("aperture", np.inf), ("min_spacing", np.nan),
    pytest.param("powers", [1.0, np.inf], id="powers-inf"),
    pytest.param("alphas", [np.inf, 1.0], id="alphas-inf"),
])
def test_scenario_rejects_non_finite(field, bad):
    params = dict(n_antennas=2, alphas=[1.0, 0.8], thetas=[1.0, 2.0],
                  powers=[1.0, 1.0], sigma2=1.0, aperture=2.0, min_spacing=0.5)
    Scenario(**params)
    params[field] = bad
    with pytest.raises(ValueError):
        Scenario(**params)


def test_channel_matrix_matches_per_user():
    scenario = sample_scenario(4, 3, 0.0, seed=9)
    x = np.sort(np.random.default_rng(0).uniform(0, scenario.aperture, 4))
    h = channel_matrix(scenario, x)
    for k in range(3):
        assert np.allclose(h[:, k], channel(scenario, k, x))


def test_position_feasibility_helpers():
    assert is_feasible_positions(np.array([0.0, 0.5, 2.0]), 2.0, 0.5)
    assert not is_feasible_positions(np.array([0.0, 0.3]), 2.0, 0.5)
    assert not is_feasible_positions(np.array([-0.1, 1.0]), 2.0, 0.5)
    assert not is_feasible_positions(np.array([0.0, 2.1]), 2.0, 0.5)


def test_interior_positions_strictly_feasible():
    for n in (1, 2, 5, 10):
        x = PositionSet(n, float(n), 0.5).interior()
        assert x[0] > 0 and x[-1] < n
        if n > 1:
            assert np.min(np.diff(x)) > 0.5


def test_interior_positions_empty_interior_raises():
    with pytest.raises(ValueError):
        PositionSet(3, 1.0, 0.5).interior()
    with pytest.raises(ValueError):
        PositionSet(1, 0.0, 0.5).interior()
