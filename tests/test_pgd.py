import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import grid_search_refined, project_feasible_numpy, project_reference
from util import random_feasible_positions, random_weights, warmed_objective

import fluidaircomp.pgd as pgd
from fluidaircomp.apv_objective import ApvObjective
from fluidaircomp.driver import AoOptions, ao_optimize
from fluidaircomp.model import PositionSet, sample_scenario
from fluidaircomp.pgd import pava_nondecreasing, project_feasible, solve_pgd


def test_pava_sorted_input_unchanged():
    y = np.array([0.0, 1.0, 1.5, 3.0])
    assert np.array_equal(pava_nondecreasing(y), y)


def test_pava_single_violation_pools():
    assert np.allclose(pava_nondecreasing(np.array([2.0, 1.0])), [1.5, 1.5])


def test_pava_output_is_nondecreasing():
    rng = np.random.default_rng(0)
    for _ in range(200):
        y = rng.normal(size=int(rng.integers(1, 12)))
        out = pava_nondecreasing(y)
        assert np.all(np.diff(out) >= 0)


def test_projection_identity_on_feasible_points():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        x = random_feasible_positions(rng, n, float(n), 0.5)
        assert np.array_equal(project_feasible(x, PositionSet(n, float(n), 0.5)), x)


def test_projection_two_antenna_kkt_case():
    positions = PositionSet(2, 2.0, 0.5)
    out = project_feasible(np.array([0.2, 0.1]), positions)
    ref = project_reference(np.array([0.2, 0.1]), positions.constraints)
    assert np.max(np.abs(out - ref)) < 1e-8


def test_projection_equal_inputs_spread_into_chain():
    positions = PositionSet(3, 5.0, 0.5)
    v = np.full(3, 2.0)
    out = project_feasible(v, positions)
    ref = project_reference(v, positions.constraints)
    assert np.max(np.abs(out - ref)) < 1e-8
    assert np.allclose(out, [1.5, 2.0, 2.5])  # shifted chain, interior case


def test_projection_matches_active_set_oracle():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        length = float(rng.uniform((n - 1) * 0.5, 3 * n))
        positions = PositionSet(n, length, 0.5)
        v = rng.uniform(-length, 2 * length, n)
        out = project_feasible(v, positions)
        ref = project_reference(v, positions.constraints)
        assert np.max(np.abs(out - ref)) < 1e-8


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_projection_idempotent_and_nonexpansive(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    length = float(n)
    u = rng.uniform(-2, length + 2, n)
    v = rng.uniform(-2, length + 2, n)
    positions = PositionSet(n, length, 0.5)
    pu = project_feasible(u, positions)
    pv = project_feasible(v, positions)
    # idempotent up to the last ulp of the ramp round trip; feasible inputs
    # short-circuit, so the drift cannot compound
    assert np.allclose(project_feasible(pu, positions), pu, rtol=0, atol=1e-13)
    assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12


def test_projection_bitwise_equals_numpy_reference():
    rng = np.random.default_rng(5)
    for trial in range(20000):
        n = int(rng.integers(1, 41))
        spacing = 0.0 if trial % 11 == 0 else 0.5
        length = float(rng.uniform((n - 1) * spacing, 2 * n))
        if trial % 4 == 0:
            v = random_feasible_positions(rng, n, length, spacing)
        else:
            v = rng.uniform(-2, length + 2, n)
        if trial % 5 == 0:  # ties and repeated blocks
            v = np.round(v)
        out = project_feasible(v, PositionSet(n, length, spacing))
        ref = project_feasible_numpy(v, length, spacing)
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()


def test_projection_infeasible_geometry_raises():
    with pytest.raises(ValueError):
        project_feasible(np.zeros(4), PositionSet(4, 1.0, 0.5))


@pytest.mark.parametrize("n", [10, 20, 40])
def test_solve_accepts_projected_starts(n):
    # projected points may miss a spacing row by a few ulps; the start check
    # must still take them, or PGD would reject its own previous iterate
    rng = np.random.default_rng(n)
    obj = random_weights(rng, 3, n)
    positions = PositionSet(n, float(n), 0.5)
    worst, worst_violation = None, -np.inf
    for _ in range(1000):
        p = project_feasible(rng.uniform(-2, n + 2, n), positions)
        positions.check(p)
        violation = float(np.max(positions.constraints.values(p)))
        if violation > worst_violation:
            worst, worst_violation = p, violation
    report = solve_pgd(obj, positions, worst)
    assert report.value <= obj.value(worst)


def test_solve_stationary_interior_start_returns_immediately():
    # flat objective: gradient is zero
    obj = ApvObjective(np.zeros((1, 2)), np.zeros((1, 2)), np.ones(1))
    x0 = np.array([0.4, 1.3])
    report = solve_pgd(obj, PositionSet(2, 2.0, 0.5), x0)
    assert report.converged
    assert report.iterations == 0 and report.value_history == [obj.value(x0)]
    assert np.array_equal(report.x, x0)


def test_solve_monotone_and_feasible():
    rng = np.random.default_rng(3)
    converged = 0
    for seed in range(100):
        n = int(rng.integers(2, 5))
        positions, objective, x0 = warmed_objective(seed=seed, n_antennas=n,
                                                    n_users=int(rng.integers(1, 5)))
        report = solve_pgd(objective, positions, x0)
        history = np.asarray(report.value_history)
        assert np.all(np.diff(history) <= 1e-12)
        assert np.max(positions.constraints.values(report.x)) <= 1e-9
        if report.converged:
            # near-stationary at the returned point: the full _STEP0
            # projected gradient step moves x by at most _TOL_X
            converged += 1
            full = project_feasible(report.x - pgd._STEP0 * objective.gradient(report.x),
                                    positions)
            assert np.linalg.norm(full - report.x) <= pgd._TOL_X
    assert converged >= 50


_SEPARABLE_SET = PositionSet(3, 10.0, 0.5)


class _Separable:
    """g(x) = sum_n d_n (x_n - c_n)^2 / 2 with the methods solve_pgd calls;
    on _SEPARABLE_SET the antennas stay far from the box and from each other."""

    def __init__(self, curvature, centre):
        self.curvature = np.asarray(curvature, dtype=float)
        self.centre = np.asarray(centre, dtype=float)
        self.points = []  # (x, gradient) per gradient call

    def value(self, x):
        return 0.5 * float(self.curvature @ (x - self.centre) ** 2)

    def gradient(self, x):
        grad = self.curvature * (x - self.centre)
        self.points.append((x.copy(), grad))
        return grad


def _first_trials(monkeypatch, objective, x0, iterations):
    """Solve; return (x, grad, v) for the first iterations, where v = x -
    gamma * grad is the first trial point handed to the projection."""
    trials = []

    def spy(v, positions):
        trials.append((len(objective.points), np.array(v, dtype=float)))
        return project_feasible(v, positions)

    monkeypatch.setattr(pgd, "project_feasible", spy)
    objective.points.clear()
    solve_pgd(objective, _SEPARABLE_SET, x0)
    assert len(objective.points) >= iterations
    return [(x, grad, next(v for seen, v in trials if seen == i + 1))
            for i, (x, grad) in enumerate(objective.points[:iterations])]


def test_first_trial_is_the_capped_bb2_step(monkeypatch):
    objective = _Separable([20.0, 30.0, 40.0], [2.0, 5.0, 8.0])
    x0 = np.array([2.5, 4.0, 8.8])
    for _ in range(2):  # a second call keeps no step from the first
        first = _first_trials(monkeypatch, objective, x0, 4)
        x, grad, v = first[0]
        assert np.array_equal(v, x - pgd._STEP0 * grad)
        for (x_prev, grad_prev, _), (x, grad, v) in zip(first, first[1:]):
            s, y = x - x_prev, grad - grad_prev
            gamma = float(s @ y) / float(y @ y)
            assert 0 < gamma < pgd._STEP0
            assert np.array_equal(v, x - gamma * grad)


def test_trial_step_falls_back_without_positive_curvature(monkeypatch):
    # on a concave g, s^T y < 0 at every step, so each ladder starts at _STEP0
    objective = _Separable([-1.0, -2.0, -3.0], [4.0, 5.0, 6.0])
    x0 = np.array([3.9, 5.05, 6.2])
    first = _first_trials(monkeypatch, objective, x0, 3)
    for (x_prev, grad_prev, _), (x, grad, _) in zip(first, first[1:]):
        assert float((x - x_prev) @ (grad - grad_prev)) < 0
    for x, grad, v in first:
        assert np.array_equal(v, x - pgd._STEP0 * grad)


def test_trace_cell_takes_few_trials_per_iteration(monkeypatch):
    # the trace cell (N=10, K=100, -10 dB, seed 0): each steered point is one
    # trial, so restarting every ladder at _STEP0 costs about 3.4 per
    # accepted iteration
    steered = ApvObjective.steered
    calls = []

    def counted(self, x):
        calls.append(1)
        return steered(self, x)

    monkeypatch.setattr(ApvObjective, "steered", counted)
    report = ao_optimize(sample_scenario(10, 100, -10.0, seed=0), AoOptions(method="pgd"))
    iterations = sum(report.inner_iterations)
    assert iterations > 1000
    assert len(calls) / iterations <= 1.5


def test_solve_never_beats_grid_optimum():
    positions, objective, x0 = warmed_objective(seed=21, n_antennas=3, n_users=2)
    report = solve_pgd(objective, positions, x0)
    _, g_best = grid_search_refined(objective, positions.aperture,
                                    positions.min_spacing, resolution=0.02)
    assert report.value >= g_best - 1e-2
    assert report.value <= objective.value(x0)
