import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (coefficient_matrix, cosine_gradient, cosine_hessian, cosine_value,
                     cross_term, fd_gradient, fd_hessian, polar, power_term, stacked_values,
                     steering_vector)
from util import flat_objective, one_weight, random_state, random_weights

from fluidaircomp.apv_objective import ApvObjective, effective_weights
from fluidaircomp.model import channel_matrix, mse, residual, sample_scenario, steering


def _direct_inner(weights, k, x):
    """w_k^H a(x, theta_k) straight from the steering vector."""
    w = coefficient_matrix(weights)[k].conj()
    return np.vdot(w, np.exp(1j * weights.spatial_freqs[k] * x))


def _sums(objective, x):
    """u_k = m^H h_k(x) b_k from the library's residual kernel."""
    h = objective.alphas * steering(x, objective.spatial_freqs)
    return residual(objective.b, objective.m, h) + 1.0


def test_power_term_zero_weights():
    assert power_term(flat_objective(2, 3), 0, np.array([0.0, 1.0, 2.0])) == 0.0


def test_power_term_single_antenna_position_free():
    rng = np.random.default_rng(4)
    weights = random_weights(rng, 1, 1)
    expected = abs(coefficient_matrix(weights)[0, 0]) ** 2
    for x in (0.0, 0.3, 0.9):
        assert power_term(weights, 0, np.array([x])) == pytest.approx(expected)
        assert abs(_sums(weights, np.array([x]))[0]) ** 2 == pytest.approx(expected)


def test_cross_term_aligned_phase_maximum():
    phi = 2 * np.pi * np.cos(1.0)
    x1 = 0.7
    weights = one_weight(np.exp(-1j * phi * x1), phi)
    assert cross_term(weights, 0, np.array([x1])) == pytest.approx(2.0)
    assert 2.0 * _sums(weights, np.array([x1]))[0].real == pytest.approx(2.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_terms_match_direct_steering_evaluation(seed):
    rng = np.random.default_rng(seed)
    k_users, n = int(rng.integers(1, 5)), int(rng.integers(1, 6))
    weights = random_weights(rng, k_users, n)
    x = rng.uniform(-1, n + 1, n)  # evaluation needs no feasibility
    u = _sums(weights, x)
    for k in range(k_users):
        inner = _direct_inner(weights, k, x)
        assert power_term(weights, k, x) == pytest.approx(abs(inner) ** 2, abs=1e-10)
        assert cross_term(weights, k, x) == pytest.approx(2 * inner.real, abs=1e-10)
        assert u[k] == pytest.approx(inner, abs=1e-10)


def test_value_is_sum_of_terms_and_batch_agrees():
    rng = np.random.default_rng(8)
    obj = random_weights(rng, 4, 5)
    pts = rng.uniform(0, 5, (7, 5))
    expected = [sum(power_term(obj, k, p) - cross_term(obj, k, p) + 1.0
                    for k in range(4)) for p in pts]
    pointwise = [obj.value(p) for p in pts]
    assert np.allclose(pointwise, expected, atol=1e-10)
    assert np.allclose(stacked_values(obj, pts), pointwise, rtol=0, atol=1e-12)


def test_value_on_a_stack_equals_pointwise_calls():
    # the kernels take h of shape (..., N, K): their sum over a (P, N) stack
    # is value at each point
    rng = np.random.default_rng(9)
    for k_users, n in ((1, 1), (1, 4), (3, 1), (4, 5)):
        obj = random_weights(rng, k_users, n)
        pts = rng.uniform(-1, n + 1, (6, n))
        stacked = stacked_values(obj, pts)
        assert stacked.shape == (6,)
        assert np.allclose(stacked, [obj.value(p) for p in pts], rtol=0, atol=1e-12)


def test_shared_evaluation_is_never_stale():
    # value, gradient and hessian share one steering evaluation per point;
    # whatever the order of calls, each result equals a fresh evaluation
    rng = np.random.default_rng(12)
    obj = random_weights(rng, 4, 5)
    x, y = rng.uniform(0, 5, 5), rng.uniform(0, 5, 5)

    def fresh(method, point):
        return getattr(ApvObjective(obj.b, obj.m, obj.alphas, obj.spatial_freqs),
                       method)(point.copy())

    def check(method, point):
        got, ref = getattr(obj, method)(point), fresh(method, point)
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()

    for point in (x, y, x):
        for method in ("value", "gradient", "hessian"):
            check(method, point)
    assert isinstance(obj.value(x), float)
    check("gradient", x)
    x[2] += 0.25  # mutated in place: same array object, new point
    for method in ("hessian", "value", "gradient"):
        check(method, x)
    x[2] -= 0.25
    check("value", x)
    # a point of another shape, even one with x's bytes, is rejected and
    # leaves the kept point alone
    for bad in (x[None], np.stack([x, y]), x[:-1]):
        for method in ("value", "gradient", "hessian", "channel"):
            with pytest.raises(ValueError, match="shape"):
                getattr(obj, method)(bad)
    for method in ("value", "gradient", "hessian"):
        check(method, x)


def test_objective_holding_a_channel_matches_one_that_formed_it():
    # effective_weights hands the objective h at x; at x, after x moves and
    # after x is mutated in place, each method's first answer equals that of
    # an objective that formed h itself, and channel(x) is channel_matrix's h
    rng = np.random.default_rng(14)
    scenario = sample_scenario(5, 4, 0.0, seed=1)
    b, m = random_state(rng, scenario)
    x, y = rng.uniform(0, 5, 5), rng.uniform(0, 5, 5)

    def held(point):
        return effective_weights(b, m, scenario, point, channel_matrix(scenario, point))

    def same(objective, method, point):
        formed = ApvObjective(b, m, scenario.alphas, scenario.spatial_freqs)
        ref = getattr(formed, method)(point.copy())
        assert np.asarray(getattr(objective, method)(point)).tobytes() == \
            np.asarray(ref).tobytes()

    for method in ("value", "gradient", "hessian", "channel"):
        objective = held(x)
        for point in (x, y, x):
            same(objective, method, point)
        point = x.copy()
        objective = held(point)
        point[2] += 0.25  # mutated in place: same array object, new point
        same(objective, method, point)
    h = channel_matrix(scenario, x)
    objective = effective_weights(b, m, scenario, x, h)
    assert objective.channel(x) is h
    for point in (y, x, y):
        assert objective.channel(point).tobytes() == channel_matrix(scenario, point).tobytes()


def test_kernel_matches_cosine_sum_references():
    # zero weights, N = 1, K = 1 and infeasible positions are all in the draws
    rng = np.random.default_rng(10)
    for trial in range(300):
        k_users = 1 if trial % 5 == 0 else int(rng.integers(1, 6))
        n = 1 if trial % 7 == 0 else int(rng.integers(1, 7))
        obj = random_weights(rng, k_users, n,
                             zero_frac=0.3 if trial % 3 == 0 else 0.0)
        x = rng.uniform(-1, n + 1, n)
        for got, ref in ((obj.value(x), cosine_value(obj, x)),
                         (obj.gradient(x), cosine_gradient(obj, x)),
                         (obj.hessian(x), cosine_hessian(obj, x))):
            scale = 1.0 + np.max(np.abs(ref))
            assert np.max(np.abs(np.asarray(got) - ref)) <= 1e-10 * scale


def test_residual_identity_with_effective_weights():
    # g(x) == sum_k |w_k^H a - 1|^2 for weights built from (b, m, alphas), and
    # g(x) + sigma2 ||m||^2 is the MSE at h(x) bit for bit: both sum one
    # kernel. The (N, K, SNR) cases add N = 1, K = 1 and 100 dB.
    for n, k, snr_db, trials in ((4, 3, 0.0, 1000), (1, 3, 0.0, 200),
                                 (4, 1, 0.0, 200), (4, 3, 100.0, 200)):
        rng = np.random.default_rng(21)
        for _ in range(trials):
            scenario = sample_scenario(n, k, snr_db, seed=int(rng.integers(1 << 31)))
            b, m = random_state(rng, scenario)
            x = np.sort(rng.uniform(0, scenario.aperture, n))
            # built at the uniform grid, so the objective forms h(x) itself
            grid = scenario.positions.uniform()
            obj = effective_weights(b, m, scenario, grid, channel_matrix(scenario, grid))
            direct = sum(
                abs(np.vdot(scenario.alphas[user] * np.conj(b[user]) * m,
                            steering_vector(x, scenario.thetas[user])) - 1.0) ** 2
                for user in range(k))
            assert obj.value(x) == pytest.approx(direct, abs=1e-9 * (1 + direct))
            exact = mse(b, m, channel_matrix(scenario, x), scenario.sigma2)
            assert obj.value(x) + scenario.sigma2 * np.sum(np.abs(m) ** 2) == exact


def test_objectives_compare_and_hash_by_identity():
    rng = np.random.default_rng(5)
    obj = random_weights(rng, 2, 3)
    twin = ApvObjective(obj.b, obj.m, obj.alphas, obj.spatial_freqs)
    assert obj == obj and not obj != obj
    assert obj != twin and not obj == twin
    assert hash(obj) == hash(obj)
    assert len({obj, twin, obj}) == 2


def test_zero_weights_flat_objective():
    obj = flat_objective(3, 4)
    x = np.array([0.0, 1.0, 2.0, 3.0])
    assert obj.value(x) == 3.0
    assert np.all(obj.gradient(x) == 0.0)
    assert np.all(obj.hessian(x) == 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    obj = random_weights(rng, int(rng.integers(1, 5)), int(rng.integers(1, 6)))
    n = obj.m.size
    x = rng.uniform(0, n, n)
    grad = obj.gradient(x)
    approx = fd_gradient(obj.value, x, h=1e-6)
    scale = np.max(np.abs(approx)) + 1.0
    assert np.max(np.abs(grad - approx)) / scale < 1e-5


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_hessian_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    obj = random_weights(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
    n = obj.m.size
    x = rng.uniform(0, n, n)
    hess = obj.hessian(x)
    assert np.allclose(hess, hess.T, atol=1e-12)
    approx = fd_hessian(obj.value, x, h=1e-4)
    scale = np.max(np.abs(approx)) + 1.0
    assert np.max(np.abs(hess - approx)) / scale < 1e-4


def test_translation_invariance_with_phase_rereference():
    rng = np.random.default_rng(17)
    for _ in range(20):
        obj = random_weights(rng, 3, 4)
        x = rng.uniform(0, 4, 4)
        shift = rng.uniform(-2, 2)
        rotation = np.exp(-1j * obj.spatial_freqs * shift)
        obj_shifted = ApvObjective(obj.b * rotation, obj.m, obj.alphas, obj.spatial_freqs)
        assert obj_shifted.value(x + shift) == pytest.approx(obj.value(x), abs=1e-9)


def test_term_bounds():
    rng = np.random.default_rng(30)
    for _ in range(200):
        weights = random_weights(rng, 2, 3, zero_frac=0.2)
        x = rng.uniform(-1, 4, 3)
        for k in range(2):
            total = 2.0 * np.sum(polar(weights)[0][k])
            assert power_term(weights, k, x) >= -1e-9
            assert -total - 1e-9 <= cross_term(weights, k, x) <= total + 1e-9
