import numpy as np
import pytest

from oracles import grid_search_refined, pava_numpy, project_feasible_numpy, project_reference
from util import flat_objective, random_feasible_positions, random_weights, warmed_objective

import fluidaircomp.pgd as pgd
from fluidaircomp import apv_objective
from fluidaircomp.driver import AoOptions, ao_optimize
from fluidaircomp.model import PositionSet, sample_scenario
from fluidaircomp.pgd import pava_nondecreasing, project_feasible, solve_pgd


def test_pava_sorted_input_unchanged():
    y = np.array([0.0, 1.0, 1.5, 3.0])
    assert np.array_equal(pava_nondecreasing(y, 0, y.size - 2), y)


def test_pava_single_violation_pools():
    assert np.allclose(pava_nondecreasing(np.array([2.0, 1.0]), 0, 0), [1.5, 1.5])


def test_pava_output_is_nondecreasing():
    rng = np.random.default_rng(0)
    for _ in range(200):
        y = rng.normal(size=int(rng.integers(1, 12)))
        out = pava_nondecreasing(y, 0, y.size - 2)
        assert np.all(np.diff(out) >= 0)
        assert out.tobytes() == pava_numpy(y).tobytes()


def test_projection_identity_on_feasible_points():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        x = random_feasible_positions(rng, n, float(n), 0.5)
        assert np.array_equal(project_feasible(x, PositionSet(n, float(n), 0.5)), x)


def test_projection_rejects_a_vector_of_the_wrong_shape():
    # a length-1 v would broadcast against the N-entry ramp, and a longer
    # one would fail inside the arithmetic; neither is a projection
    positions = PositionSet(3, 3.0, 0.5)
    for v in (np.array([0.5]), np.array([0.0, 1.0, 2.0, 3.0]), np.zeros((1, 3))):
        with pytest.raises(ValueError, match="shape"):
            project_feasible(v, positions)


def test_projection_two_antenna_kkt_case():
    positions = PositionSet(2, 2.0, 0.5)
    out = project_feasible(np.array([0.2, 0.1]), positions)
    ref = project_reference(np.array([0.2, 0.1]), positions)
    assert np.max(np.abs(out - ref)) < 1e-8


def test_projection_equal_inputs_spread_into_chain():
    positions = PositionSet(3, 5.0, 0.5)
    v = np.full(3, 2.0)
    out = project_feasible(v, positions)
    ref = project_reference(v, positions)
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
        ref = project_reference(v, positions)
        assert np.max(np.abs(out - ref)) < 1e-8


def test_projection_idempotent_and_nonexpansive():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        length = float(n)
        u = rng.uniform(-2, length + 2, n)
        v = rng.uniform(-2, length + 2, n)
        positions = PositionSet(n, length, 0.5)
        pu = project_feasible(u, positions)
        pv = project_feasible(v, positions)
        # idempotent up to the last ulp of the ramp round trip; feasible
        # inputs short-circuit, so the drift cannot compound
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


def test_monotone_inputs_leaving_the_box_are_only_clipped(monkeypatch):
    # ramp-shifted inputs that are already nondecreasing but leave [0, slack]
    # at one end or both skip PAVA; the clip alone must give the reference's
    # bits, which run PAVA on them
    def no_pava(y, first, last):
        raise AssertionError("PAVA ran on a nondecreasing input")

    monkeypatch.setattr(pgd, "pava_nondecreasing", no_pava)
    rng = np.random.default_rng(7)
    for trial in range(4000):
        n = int(rng.integers(1, 41))
        spacing = 0.5 if trial % 2 else 0.0
        length = float(rng.uniform((n - 1) * spacing + 0.5, 2 * n))
        positions = PositionSet(n, length, spacing)
        y = np.sort(rng.uniform(0.0, positions.slack, n))
        if trial % 5 == 0:  # ties on exact grids, inside the box and below it
            y = np.floor(y)
        end = trial % 3 if n > 1 else trial % 2  # 0: below 0, 1: above slack, 2: both
        below = int(rng.integers(1, n if end == 2 else n + 1)) if end != 1 else 0
        if below:
            y[:below] = np.sort(-rng.integers(1, 5, below) / 2.0 if trial % 5 == 0
                                else -rng.uniform(0.01, 2.0, below))
        above = int(rng.integers(1, n - below + 1)) if end != 0 else 0
        if above:
            y[n - above:] = positions.slack + np.sort(rng.uniform(0.01, 2.0, above))
        v = y + positions.ramp
        shifted = v - positions.ramp
        assert np.all(shifted[:-1] <= shifted[1:])
        assert shifted[0] < 0.0 or shifted[-1] > positions.slack
        out = project_feasible(v, positions)
        ref = project_feasible_numpy(v, length, spacing)
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()


def _pgd_shaped_trial(rng, trial):
    """(positions, aperture, spacing, v): a random feasible chain moved by a
    short random step, as pgd's trial points are, with one entry kicked down
    or up on some trials (a pool reaching back into the prefix, or one
    running past the entry after the last violation), the kick at the first
    or the last pair on others, values rounded onto a grid for exact ties,
    and tight geometry (slack 0)."""
    n = int(rng.integers(2, 41))
    spacing = 0.0 if trial % 7 == 0 else 0.5
    if spacing and trial % 13 == 0:
        aperture = (n - 1) * spacing
    else:
        aperture = float(rng.uniform((n - 1) * spacing + 0.5, 2 * n))
    positions = PositionSet(n, aperture, spacing)
    x = random_feasible_positions(rng, n, aperture, spacing)
    v = x + rng.normal(scale=[1e-3, 1e-2, 0.1, 0.5][trial % 4], size=n)
    kick = trial % 5
    if kick:
        i = {1: 0, 2: n - 2}.get(kick, int(rng.integers(0, n - 1)))
        size = float(rng.uniform(0.1, 3.0))
        # kick 1 and 3 lift entry i over its successor, kick 2 and 4 drop
        # entry i + 1 under its predecessor
        if kick % 2:
            v[i] += size
        else:
            v[i + 1] -= size
    if trial % 6 == 0:
        v = np.round(v * 4.0) / 4.0
    return positions, aperture, spacing, v


def test_windowed_projection_equals_the_numpy_reference():
    # pgd-shaped inputs that need PAVA: the window from the first to the last
    # pair with y_i <= y_{i+1} false must give the full walk's bits, in the
    # projection and in pava_nondecreasing itself
    rng = np.random.default_rng(11)
    seen = dict.fromkeys(("isolated", "several", "into prefix", "past last",
                          "first pair", "last pair", "tight", "ties"), 0)
    for trial in range(6000):
        positions, aperture, spacing, v = _pgd_shaped_trial(rng, trial)
        out = project_feasible(v, positions)
        ref = project_feasible_numpy(v, aperture, spacing)
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()

        y = v - positions.ramp
        window = np.flatnonzero(~(y[:-1] <= y[1:]))
        if window.size == 0:
            continue
        first, last = int(window[0]), int(window[-1])
        pooled = pava_numpy(y)
        assert pava_nondecreasing(y, first, last).tobytes() == pooled.tobytes()
        seen["isolated" if window.size == 1 else "several"] += 1
        seen["into prefix"] += bool(first > 0 and pooled[first - 1] != y[first - 1])
        seen["past last"] += bool(last + 2 < y.size and pooled[last + 2] != y[last + 2])
        seen["first pair"] += first == 0
        seen["last pair"] += last == y.size - 2
        seen["tight"] += positions.slack == 0.0
        seen["ties"] += bool(np.any(y[:-1] == y[1:]))
    assert min(seen.values()) >= 100, seen


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
        violation = float(np.max(positions.values(p)))
        if violation > worst_violation:
            worst, worst_violation = p, violation
    report = solve_pgd(obj, positions, worst)
    assert report.value <= obj.value(worst)


def test_solve_stationary_interior_start_returns_immediately():
    # flat objective: gradient is zero
    obj = flat_objective(1, 2)
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
        assert np.max(positions.values(report.x)) <= 1e-9
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
    # the trace cell (N=10, K=100, -10 dB, seed 0): each point the objective
    # evaluates is one trial, so restarting every ladder at _STEP0 costs
    # about 3.4 per accepted iteration
    residual = apv_objective.residual
    calls = []

    def counted(b, m, h):
        calls.append(1)
        return residual(b, m, h)

    monkeypatch.setattr(apv_objective, "residual", counted)
    report = ao_optimize(sample_scenario(10, 100, -10.0, seed=0), AoOptions(method="pgd"))
    iterations = sum(report.inner_iterations)
    assert iterations > 1000
    assert len(calls) >= iterations
    assert len(calls) / iterations <= 1.5


def test_solve_never_beats_grid_optimum():
    positions, objective, x0 = warmed_objective(seed=21, n_antennas=3, n_users=2)
    report = solve_pgd(objective, positions, x0)
    _, g_best = grid_search_refined(objective, positions.aperture,
                                    positions.min_spacing, resolution=0.02)
    assert report.value >= g_best - 1e-2
    assert report.value <= objective.value(x0)
