import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import grid_search_refined, project_reference
from util import random_feasible_positions, random_objective, warmed_objective

from fluidaircomp.apv_objective import ApvObjective, EffectiveWeights, position_constraints
from fluidaircomp.pgd import PgdOptions, pava_nondecreasing, project_feasible, solve_pgd


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
        assert np.array_equal(project_feasible(x, float(n), 0.5), x)


def test_projection_two_antenna_kkt_case():
    out = project_feasible(np.array([0.2, 0.1]), 2.0, 0.5)
    ref = project_reference(np.array([0.2, 0.1]), position_constraints(2, 2.0, 0.5))
    assert np.max(np.abs(out - ref)) < 1e-8


def test_projection_equal_inputs_spread_into_chain():
    cons = position_constraints(3, 5.0, 0.5)
    v = np.full(3, 2.0)
    out = project_feasible(v, 5.0, 0.5)
    ref = project_reference(v, cons)
    assert np.max(np.abs(out - ref)) < 1e-8
    assert np.allclose(out, [1.5, 2.0, 2.5])  # shifted chain, interior case


def test_projection_matches_active_set_oracle():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        length = float(rng.uniform((n - 1) * 0.5, 3 * n))
        cons = position_constraints(n, length, 0.5)
        v = rng.uniform(-length, 2 * length, n)
        out = project_feasible(v, length, 0.5)
        ref = project_reference(v, cons)
        assert np.max(np.abs(out - ref)) < 1e-8


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_projection_idempotent_and_nonexpansive(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    length = float(n)
    u = rng.uniform(-2, length + 2, n)
    v = rng.uniform(-2, length + 2, n)
    pu = project_feasible(u, length, 0.5)
    pv = project_feasible(v, length, 0.5)
    # idempotent up to the last ulp of the ramp round trip; feasible inputs
    # short-circuit, so the drift cannot compound
    assert np.allclose(project_feasible(pu, length, 0.5), pu, rtol=0, atol=1e-13)
    assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12


def test_projection_infeasible_geometry_raises():
    with pytest.raises(ValueError):
        project_feasible(np.zeros(4), 1.0, 0.5)


@pytest.mark.parametrize("n", [10, 20, 40])
def test_solve_accepts_projected_starts(n):
    # projected points may miss a spacing row by a few ulps; the start check
    # must still take them, or PGD would reject its own previous iterate
    rng = np.random.default_rng(n)
    obj = random_objective(rng, 3, n)
    for _ in range(1000):
        p = project_feasible(rng.uniform(-2, n + 2, n), obj.aperture, obj.min_spacing)
        solve_pgd(obj, p, PgdOptions(max_iters=1))


def test_solve_stationary_interior_start_returns_immediately():
    weights = EffectiveWeights(np.zeros((1, 2)), np.zeros((1, 2)), np.ones(1))
    obj = ApvObjective(weights, 2.0, 0.5)  # flat objective: gradient is zero
    x0 = np.array([0.4, 1.3])
    report = solve_pgd(obj, x0)
    assert report.converged
    assert np.array_equal(report.x, x0)


def test_solve_monotone_and_feasible():
    rng = np.random.default_rng(3)
    for seed in range(100):
        n = int(rng.integers(2, 5))
        _, objective, x0 = warmed_objective(seed=seed, n_antennas=n,
                                            n_users=int(rng.integers(1, 5)))
        report = solve_pgd(objective, x0, PgdOptions(max_iters=40))
        history = np.asarray(report.value_history)
        assert np.all(np.diff(history) <= 1e-12)
        assert np.max(objective.constraints.values(report.x)) <= 1e-9


def test_solve_never_beats_grid_optimum():
    _, objective, x0 = warmed_objective(seed=21, n_antennas=3, n_users=2)
    report = solve_pgd(objective, x0)
    _, g_best = grid_search_refined(objective, objective.aperture,
                                    objective.min_spacing, resolution=0.02)
    assert report.value >= g_best - 1e-2
    assert report.value <= objective.value(x0)
