import numpy as np
import pytest

from fluidaircomp.driver import METHODS, AoOptions, ao_optimize, fpa_positions
from fluidaircomp.model import Scenario, is_feasible_positions, mse, sample_scenario


def test_fpa_positions_two_antennas():
    assert np.allclose(fpa_positions(2, 2.0), [0.0, 2.0])


def test_fpa_positions_five_antennas():
    assert np.allclose(fpa_positions(5, 5.0), [0.0, 1.25, 2.5, 3.75, 5.0])


def test_fpa_positions_spacing_respects_default_geometry():
    for n in range(2, 26):
        x = fpa_positions(n, float(n))
        assert np.min(np.diff(x)) >= 0.5


def test_fpa_scalar_instance_matches_brute_force():
    # single user, single antenna, unit channel: the alternating fixed point
    # is b = 1, m = 1/2 with MSE 1/2; a dense 2-D grid over (b, m) agrees
    scenario = Scenario(1, [1.0], [np.pi / 2], [1.0], 1.0, 0.0, 0.0)
    report = ao_optimize(scenario, AoOptions(method="fpa"))
    assert report.converged
    assert report.state.mse == pytest.approx(0.5, abs=1e-9)

    b_grid = np.linspace(0.0, 1.0, 401)
    m_grid = np.linspace(0.0, 1.0, 1001)
    bb, mm = np.meshgrid(b_grid, m_grid)
    grid_best = np.min((mm * bb - 1.0) ** 2 + mm**2)
    assert report.state.mse == pytest.approx(grid_best, abs=1e-3)


@pytest.mark.parametrize("method", METHODS)
def test_mse_history_monotone(method):
    for seed in (0, 1, 2):
        scenario = sample_scenario(4, 5, -5.0, seed=seed)
        report = ao_optimize(scenario, AoOptions(method=method, max_rounds=25))
        hist = np.asarray(report.mse_history)
        assert np.all(np.diff(hist) <= 1e-9)


@pytest.mark.parametrize("method", METHODS)
def test_final_state_feasible(method):
    scenario = sample_scenario(3, 4, 0.0, seed=7)
    report = ao_optimize(scenario, AoOptions(method=method, max_rounds=15))
    state = report.state
    assert np.all(np.abs(state.b) ** 2 <= scenario.powers + 1e-12)
    assert is_feasible_positions(state.x, scenario.aperture, scenario.min_spacing)
    assert state.mse == pytest.approx(
        mse(state.b, state.m, scenario, state.x), abs=1e-12)


@pytest.mark.parametrize("method", METHODS)
def test_determinism(method):
    scenario = sample_scenario(3, 4, -5.0, seed=11)
    options = AoOptions(method=method, max_rounds=10)
    a = ao_optimize(scenario, options, seed=11)
    b = ao_optimize(scenario, options, seed=11)
    assert a.mse_history == b.mse_history
    assert np.array_equal(a.state.x, b.state.x)
    assert np.array_equal(a.state.b, b.state.b)
    assert np.array_equal(a.state.m, b.state.m)
    assert a.rounds == b.rounds and a.status == b.status


def test_fpa_never_moves_positions():
    scenario = sample_scenario(5, 4, 0.0, seed=3)
    report = ao_optimize(scenario, AoOptions(method="fpa", max_rounds=20))
    assert np.array_equal(report.state.x, fpa_positions(5, scenario.aperture))
    assert report.inner_iterations == []


def test_movable_methods_record_inner_iterations():
    scenario = sample_scenario(3, 3, 0.0, seed=5)
    report = ao_optimize(scenario, AoOptions(method="pdip", max_rounds=8))
    assert len(report.inner_iterations) == report.rounds


def test_unknown_method_rejected():
    scenario = sample_scenario(2, 2, 0.0, seed=0)
    with pytest.raises(ValueError):
        ao_optimize(scenario, AoOptions(method="annealing"))


def test_proposed_beats_fpa_on_average():
    # paired comparison across seeds; per instance the inequality can fail
    # (both are local methods), on the mean it must not
    gaps = []
    for seed in range(200):
        scenario = sample_scenario(2, 2, -5.0, seed=seed)
        fpa = ao_optimize(scenario, AoOptions(method="fpa", max_rounds=40))
        pdip = ao_optimize(scenario, AoOptions(method="pdip", max_rounds=40))
        gaps.append(fpa.state.mse - pdip.state.mse)
    assert np.mean(gaps) > 0


def test_degenerate_interior_flags_position_solver():
    # L == (N-1)*L0 leaves no strictly interior point: the SCA round fails and
    # is reported, with the last good state returned
    scenario = Scenario(3, [1.0, 0.8], [1.0, 2.0], [1.0, 1.0], 1.0, 1.0, 0.5)
    report = ao_optimize(scenario, AoOptions(method="sca", max_rounds=5))
    assert report.status.startswith("position_solver_failed")
    assert is_feasible_positions(report.state.x, 1.0, 0.5)
    hist = np.asarray(report.mse_history)
    assert np.all(np.diff(hist) <= 1e-9)


def test_degenerate_interior_rejects_pdip_start():
    scenario = Scenario(3, [1.0, 0.8], [1.0, 2.0], [1.0, 1.0], 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        ao_optimize(scenario, AoOptions(method="pdip"))


def test_programming_error_in_position_solver_propagates(monkeypatch):
    # only typed solver failures become a status; anything else is a bug
    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr("fluidaircomp.driver.solve_pgd", broken)
    scenario = sample_scenario(3, 2, 0.0, seed=4)
    with pytest.raises(TypeError):
        ao_optimize(scenario, AoOptions(method="pgd", max_rounds=3))


def test_single_antenna_runs_every_method():
    scenario = sample_scenario(1, 3, 0.0, seed=9)
    finals = {}
    for method in METHODS:
        report = ao_optimize(scenario, AoOptions(method=method, max_rounds=10))
        finals[method] = report.state.mse
        hist = np.asarray(report.mse_history)
        assert np.all(np.diff(hist) <= 1e-9)
    # position cannot matter with one antenna: all methods coincide
    vals = list(finals.values())
    assert np.allclose(vals, vals[0], atol=1e-9)
