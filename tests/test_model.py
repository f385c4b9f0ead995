import numpy as np
import pytest

from oracles import channel, is_feasible_positions, steering_vector

from fluidaircomp.model import (PositionSet, Scenario, channel_matrix, mse,
                                sample_scenario, steering)


def _freqs(*thetas):
    return 2.0 * np.pi * np.cos(np.array(thetas))


def test_steering_zero_position_unit_phase():
    out = steering(np.array([0.0]), _freqs(1.0))
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(1.0 + 0.0j)


def test_steering_broadside_kills_phase():
    out = steering(np.array([0.5]), _freqs(np.pi / 2))
    assert abs(out[0, 0] - 1.0) < 1e-12


def test_steering_half_wavelength_endfire():
    out = steering(np.array([0.0, 0.5]), _freqs(0.0))
    assert out[0, 0] == pytest.approx(1.0 + 0.0j)
    assert out[1, 0] == pytest.approx(-1.0 + 0.0j, abs=1e-12)


def test_steering_unit_modulus():
    # endfire-near, broadside and the other endfire-near angle, then draws
    rng = np.random.default_rng(5)
    for theta in (0.001, np.pi / 2, np.pi - 0.001, *rng.uniform(0.001, np.pi - 0.001, 50)):
        x = np.sort(rng.uniform(0, 10, int(rng.integers(1, 9))))
        assert np.max(np.abs(np.abs(steering(x, _freqs(theta))) - 1.0)) < 1e-12


def test_steering_columns_are_per_user_steering_vectors():
    rng = np.random.default_rng(3)
    thetas = rng.uniform(1e-3, np.pi - 1e-3, 4)
    points = rng.uniform(0, 5, (6, 3))
    out = steering(points, _freqs(*thetas))
    assert out.shape == (6, 3, 4)
    for p, x in enumerate(points):
        for k, theta in enumerate(thetas):
            assert np.allclose(out[p, :, k], steering_vector(x, theta), rtol=0, atol=1e-12)


def test_steering_equals_complex_exp_bit_for_bit():
    # steering forms its exponent as one complex product; for finite inputs
    # it must give exp(1j * t)'s bits, including the +0.0 imaginary part
    # that exp gives where t = -0.0 (x_n = 0 with phi_k < 0)
    rng = np.random.default_rng(9)
    cases = [(np.zeros(4), np.array([-2.0, 0.0, 3.0])),
             (np.array([0.0, -0.0, -1.5, 2.5]), np.array([-6.0, -0.0, 0.0, 6.0])),
             (np.array([0.7]), np.array([-1.3])),
             (rng.uniform(0, 40, 40), rng.uniform(-2 * np.pi, 2 * np.pi, 200))]
    for trial in range(2000):
        n, k = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        shape = (n,) if trial % 2 else (int(rng.integers(1, 5)), n)
        x = rng.uniform(-10, 10, shape)
        x[rng.uniform(size=shape) < 0.2] = 0.0
        phi = rng.uniform(-2 * np.pi, 2 * np.pi, k)
        phi[rng.uniform(size=k) < 0.1] = 0.0
        cases.append((x, phi))
    for x, phi in cases:
        out = steering(x, phi)
        ref = np.exp(1j * (x[..., :, None] * phi))
        assert out.dtype == ref.dtype and out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()


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
    h = channel_matrix(scenario, scenario.positions.uniform())
    b = np.ones(5, dtype=complex)
    assert mse(b, np.zeros(3, dtype=complex), h, scenario.sigma2) == pytest.approx(5.0)


def test_mse_perfect_alignment_scalar():
    scenario = Scenario(1, [1.0], [np.pi / 2], [1.0], 1e-12, 0.0, 0.0)
    h = channel_matrix(scenario, np.array([0.0]))
    value = mse(np.array([1.0 + 0j]), np.array([1.0 + 0j]), h, scenario.sigma2)
    assert value == pytest.approx(1e-12, abs=1e-15)


def test_mse_direct_substitution():
    scenario = Scenario(1, [1.0], [np.pi / 2], [1.0], 1.0, 0.0, 0.0)
    h = channel_matrix(scenario, np.array([0.0]))
    value = mse(np.array([1.0 + 0j]), np.array([0.5 + 0j]), h, scenario.sigma2)
    assert value == pytest.approx(0.5)


def test_mse_dimension_mismatch():
    # h is (N, K) = (2, 3): b must have length K = 3 and m length N = 2
    scenario = sample_scenario(2, 3, 0.0, seed=0)
    h = channel_matrix(scenario, scenario.positions.uniform())
    for b_len, m_len in [(2, 2), (3, 3), (2, 3), (4, 2), (3, 1)]:
        with pytest.raises(ValueError):
            mse(np.ones(b_len, dtype=complex), np.ones(m_len, dtype=complex), h,
                scenario.sigma2)


def test_mse_invariant_under_common_phase():
    rng = np.random.default_rng(6)
    for psi in (0.0, 2 * np.pi, *rng.uniform(0, 2 * np.pi, 40)):
        scenario = sample_scenario(3, 4, 0.0, seed=int(rng.integers(1 << 31)))
        x = np.sort(rng.uniform(0, scenario.aperture, 3))
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        m = rng.normal(size=3) + 1j * rng.normal(size=3)
        rot = np.exp(1j * psi)
        h = channel_matrix(scenario, x)
        base = mse(b, m, h, scenario.sigma2)
        rotated = mse(b * rot, m * rot, h, scenario.sigma2)
        assert rotated == pytest.approx(base, abs=1e-12 * (1 + base))


def test_mse_lower_bounded_by_noise_term():
    rng = np.random.default_rng(7)
    for _ in range(20):
        scenario = sample_scenario(4, 6, rng.uniform(-10, 10), seed=int(rng.integers(1 << 31)))
        x = np.sort(rng.uniform(0, scenario.aperture, 4))
        b, m = (rng.normal(size=6) + 1j * rng.normal(size=6),
                rng.normal(size=4) + 1j * rng.normal(size=4))
        noise = scenario.sigma2 * np.sum(np.abs(m) ** 2)
        assert mse(b, m, channel_matrix(scenario, x), scenario.sigma2) >= noise - 1e-12


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


@pytest.mark.parametrize("alphas, thetas, powers", [
    pytest.param([[1.0, 2.0]], [1.0], [1.0], id="gains-2d"),
    pytest.param(1.0, [1.0], [1.0], id="gains-scalar"),
])
def test_scenario_rejects_user_arrays_that_are_not_one_length_k(alphas, thetas, powers):
    # a (1, 2) gain array once passed as one user, and a scalar raised IndexError
    with pytest.raises(ValueError):
        Scenario(n_antennas=2, alphas=alphas, thetas=thetas, powers=powers,
                 sigma2=1.0, aperture=2.0, min_spacing=0.5)


def test_channel_matrix_matches_per_user():
    scenario = sample_scenario(4, 3, 0.0, seed=9)
    x = np.sort(np.random.default_rng(0).uniform(0, scenario.aperture, 4))
    h = channel_matrix(scenario, x)
    for k in range(3):
        assert np.allclose(h[:, k], channel(scenario, k, x))


def test_constraints_boundary_contact():
    positions = PositionSet(2, 2.0, 0.5)
    assert np.allclose(positions.values(np.array([0.0, 2.0])), [0.0, 0.0, -1.5])


def test_constraints_flag_spacing_violation():
    positions = PositionSet(2, 2.0, 0.5)
    values = positions.values(np.array([1.0, 1.2]))
    assert values[2] == pytest.approx(0.3)
    assert np.any(values > 0)


def test_constraints_uniform_grid_feasible():
    for n in (2, 4, 8):
        length = float(n)
        positions = PositionSet(n, length, 0.5)
        x = np.linspace(0, length, n)
        values = positions.values(x)
        assert np.all(values <= 1e-12)
        assert np.all(values[2:] < 0)  # spacing rows strictly slack


def test_constraints_jacobian_shape_and_linearity():
    rng = np.random.default_rng(2)
    positions = PositionSet(5, 5.0, 0.5)
    assert positions.matrix.shape == (6, 5)
    x, y = rng.normal(size=5), rng.normal(size=5)
    # affine: f(x+y) - f(x) is linear in y with the constant jacobian
    assert np.allclose(positions.values(x + y) - positions.values(x),
                       positions.matrix @ y)


def test_constraints_single_antenna():
    positions = PositionSet(1, 2.0, 0.5)
    assert positions.matrix.shape == (2, 1)
    assert np.allclose(positions.values(np.array([0.5])), [-0.5, -1.5])


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
