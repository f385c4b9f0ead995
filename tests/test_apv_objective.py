import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (cosine_gradient, cosine_hessian, cosine_value, cross_term,
                     fd_gradient, fd_hessian, power_term)
from util import random_state, random_weights

from fluidaircomp.apv_objective import ApvObjective, effective_weights
from fluidaircomp.model import PositionSet, sample_scenario, steering_vector


def _direct_inner(weights, k, x):
    """w_k^H a(x, theta_k) straight from the steering vector."""
    w = weights.magnitudes[k] * np.exp(1j * weights.phases[k])
    return np.vdot(w, np.exp(1j * weights.spatial_freqs[k] * x))


def test_power_term_zero_weights():
    weights = ApvObjective(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(2))
    assert power_term(weights, 0, np.array([0.0, 1.0, 2.0])) == 0.0


def test_power_term_single_antenna_position_free():
    rng = np.random.default_rng(4)
    weights = random_weights(rng, 1, 1)
    expected = weights.magnitudes[0, 0] ** 2
    for x in (0.0, 0.3, 0.9):
        assert power_term(weights, 0, np.array([x])) == pytest.approx(expected)
        _, u = weights.steered(np.array([x]))
        assert abs(u[0]) ** 2 == pytest.approx(expected)


def test_cross_term_aligned_phase_maximum():
    phi = 2 * np.pi * np.cos(1.0)
    x1 = 0.7
    weights = ApvObjective(np.array([[1.0]]), np.array([[phi * x1]]),
                               np.array([phi]))
    assert cross_term(weights, 0, np.array([x1])) == pytest.approx(2.0)
    _, u = weights.steered(np.array([x1]))
    assert 2.0 * u[0].real == pytest.approx(2.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_terms_match_direct_steering_evaluation(seed):
    rng = np.random.default_rng(seed)
    k_users, n = int(rng.integers(1, 5)), int(rng.integers(1, 6))
    weights = random_weights(rng, k_users, n)
    x = rng.uniform(-1, n + 1, n)  # evaluation needs no feasibility
    _, u = weights.steered(x)
    for k in range(k_users):
        inner = _direct_inner(weights, k, x)
        assert power_term(weights, k, x) == pytest.approx(abs(inner) ** 2, abs=1e-10)
        assert cross_term(weights, k, x) == pytest.approx(2 * inner.real, abs=1e-10)
        assert u[k] == pytest.approx(inner, abs=1e-10)


def test_value_is_sum_of_terms_and_batch_agrees():
    rng = np.random.default_rng(8)
    obj = random_weights(rng, 4, 5)
    pts = rng.uniform(0, 5, (7, 5))
    expected = [sum(power_term(obj, k, p) - cross_term(obj, k, p)
                    for k in range(4)) for p in pts]
    assert np.allclose([obj.value(p) for p in pts], expected, atol=1e-10)
    assert np.allclose(obj.value(pts), expected, atol=1e-10)


def test_value_on_a_stack_equals_pointwise_calls():
    rng = np.random.default_rng(9)
    for k_users, n in ((1, 1), (1, 4), (3, 1), (4, 5)):
        obj = random_weights(rng, k_users, n)
        pts = rng.uniform(-1, n + 1, (6, n))
        stacked = obj.value(pts)
        assert stacked.shape == (6,)
        assert np.allclose(stacked, [obj.value(p) for p in pts], rtol=0, atol=1e-12)


def test_shared_evaluation_is_never_stale():
    # value, gradient and hessian share one steering evaluation per point;
    # whatever the order of calls, each result equals a fresh evaluation
    rng = np.random.default_rng(12)
    obj = random_weights(rng, 4, 5)
    x, y = rng.uniform(0, 5, 5), rng.uniform(0, 5, 5)
    stack = rng.uniform(0, 5, (3, 5))

    def fresh(method, point):
        return getattr(ApvObjective(obj.magnitudes, obj.phases, obj.spatial_freqs),
                       method)(point.copy())

    def check(method, point):
        got, ref = getattr(obj, method)(point), fresh(method, point)
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()

    # x[None] has x's bytes but another shape, and value returns an array
    for point in (x, y, x, x[None], stack, x):
        for method in ("value", "gradient", "hessian"):
            if point.shape == (5,) or method == "value":
                check(method, point)
    assert isinstance(obj.value(x), float) and obj.value(x[None]).shape == (1,)
    check("value", stack[0])
    check("value", stack)
    check("gradient", x)
    x[2] += 0.25  # mutated in place: same array object, new point
    for method in ("hessian", "value", "gradient"):
        check(method, x)
    x[2] -= 0.25
    check("value", x)


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
    # sum_k |w_k^H a - 1|^2 == g(x) + K for weights built from (b, m, alphas)
    rng = np.random.default_rng(21)
    for _ in range(1000):
        scenario = sample_scenario(4, 3, 0.0, seed=int(rng.integers(1 << 31)))
        b, m = random_state(rng, scenario)
        obj = effective_weights(b, m, scenario)
        x = np.sort(rng.uniform(0, scenario.aperture, 4))
        direct = sum(
            abs(np.vdot(scenario.alphas[k] * np.conj(b[k]) * m,
                        steering_vector(x, scenario.thetas[k])) - 1.0) ** 2
            for k in range(3))
        assert obj.value(x) + 3 == pytest.approx(direct, abs=1e-9 * (1 + direct))


def test_zero_weights_flat_objective():
    obj = ApvObjective(np.zeros((3, 4)), np.zeros((3, 4)), np.ones(3))
    x = np.array([0.0, 1.0, 2.0, 3.0])
    assert obj.value(x) == 0.0
    assert np.all(obj.gradient(x) == 0.0)
    assert np.all(obj.hessian(x) == 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    obj = random_weights(rng, int(rng.integers(1, 5)), int(rng.integers(1, 6)))
    n = obj.n_antennas
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
    n = obj.n_antennas
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
        obj_shifted = ApvObjective(
            magnitudes=obj.magnitudes,
            phases=obj.phases + obj.spatial_freqs[:, None] * shift,
            spatial_freqs=obj.spatial_freqs)
        assert obj_shifted.value(x + shift) == pytest.approx(obj.value(x), abs=1e-9)


def test_term_bounds():
    rng = np.random.default_rng(30)
    for _ in range(200):
        weights = random_weights(rng, 2, 3, zero_frac=0.2)
        x = rng.uniform(-1, 4, 3)
        for k in range(2):
            total = 2.0 * np.sum(weights.magnitudes[k])
            assert power_term(weights, k, x) >= -1e-9
            assert -total - 1e-9 <= cross_term(weights, k, x) <= total + 1e-9


def test_constraints_boundary_contact():
    cons = PositionSet(2, 2.0, 0.5).constraints
    assert np.allclose(cons.values(np.array([0.0, 2.0])), [0.0, 0.0, -1.5])


def test_constraints_flag_spacing_violation():
    cons = PositionSet(2, 2.0, 0.5).constraints
    values = cons.values(np.array([1.0, 1.2]))
    assert values[2] == pytest.approx(0.3)
    assert np.any(values > 0)


def test_constraints_uniform_grid_feasible():
    for n in (2, 4, 8):
        length = float(n)
        cons = PositionSet(n, length, 0.5).constraints
        x = np.linspace(0, length, n)
        values = cons.values(x)
        assert np.all(values <= 1e-12)
        assert np.all(values[2:] < 0)  # spacing rows strictly slack


def test_constraints_jacobian_shape_and_linearity():
    rng = np.random.default_rng(2)
    cons = PositionSet(5, 5.0, 0.5).constraints
    assert cons.matrix.shape == (6, 5)
    x, y = rng.normal(size=5), rng.normal(size=5)
    # affine: f(x+y) - f(x) is linear in y with the constant jacobian
    assert np.allclose(cons.values(x + y) - cons.values(x), cons.matrix @ y)


def test_constraints_single_antenna():
    cons = PositionSet(1, 2.0, 0.5).constraints
    assert cons.matrix.shape == (2, 1)
    assert np.allclose(cons.values(np.array([0.5])), [-0.5, -1.5])
