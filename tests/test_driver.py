import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import is_feasible_positions

from fluidaircomp.apv_objective import ApvObjective
from fluidaircomp.driver import METHODS, AoOptions, ao_optimize
from fluidaircomp.model import (InfeasibleStartError, PositionSet, Scenario, mse,
                               sample_scenario)
from fluidaircomp.pdip import SolveReport
from fluidaircomp.sca import solve_sca


def test_fpa_positions_two_antennas():
    assert np.allclose(PositionSet(2, 2.0, 0.5).uniform(), [0.0, 2.0])


def test_fpa_positions_five_antennas():
    assert np.allclose(PositionSet(5, 5.0, 0.5).uniform(), [0.0, 1.25, 2.5, 3.75, 5.0])


def test_fpa_positions_spacing_respects_default_geometry():
    for n in range(2, 26):
        x = PositionSet(n, float(n), 0.5).uniform()
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
    assert np.array_equal(report.state.x, scenario.positions.uniform())
    assert report.inner_iterations == []


def test_movable_methods_record_inner_iterations():
    scenario = sample_scenario(3, 3, 0.0, seed=5)
    report = ao_optimize(scenario, AoOptions(method="pdip", max_rounds=8))
    assert len(report.inner_iterations) == report.rounds


def test_unknown_method_rejected():
    scenario = sample_scenario(2, 2, 0.0, seed=0)
    with pytest.raises(ValueError):
        ao_optimize(scenario, AoOptions(method="annealing"))


@pytest.mark.parametrize("overrides", [
    dict(method="annealing"), dict(max_rounds=0), dict(tol_mse=float("nan")),
    dict(tol_mse=-1.0),
], ids=["method-unknown", "max-rounds-0", "tol-mse-nan", "tol-mse-neg"])
def test_options_reject_bad_fields(overrides):
    # a run must not return the untouched start or silently skip its stop rule
    with pytest.raises(ValueError):
        AoOptions(**{"method": "fpa", **overrides})


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


def test_failed_position_solver_is_flagged(monkeypatch):
    # a typed failure in round 2 is reported, with the last good state returned
    calls = []

    def fails_in_round_2(objective, positions, x0):
        calls.append(1)
        if len(calls) == 2:
            raise InfeasibleStartError("no start")
        return solve_sca(objective, positions, x0)

    monkeypatch.setattr("fluidaircomp.driver.solve_sca", fails_in_round_2)
    scenario = sample_scenario(3, 2, 0.0, seed=4)
    report = ao_optimize(scenario, AoOptions(method="sca", max_rounds=5))
    assert report.status == "position_solver_failed_round_2"
    assert report.rounds == 2 and len(report.inner_iterations) == 1
    assert is_feasible_positions(report.state.x, scenario.aperture, scenario.min_spacing)
    hist = np.asarray(report.mse_history)
    assert np.all(np.diff(hist) <= 1e-9)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), k=st.integers(1, 3),
       snr_db=st.sampled_from([-100.0, 0.0, 100.0]),
       geometry=st.sampled_from(["default", "tight", 0.1, 0.3]),
       seed=st.integers(0, 2**16))
@example(n=4, k=3, snr_db=0.0, geometry=0.1, seed=0)
@example(n=4, k=3, snr_db=0.0, geometry=0.3, seed=0)
def test_edges_keep_every_method_running(n, k, snr_db, geometry, seed):
    # N = 1, K = 1, extreme SNR and L = (N-1)*L0: only pdip, which needs a
    # strictly interior start, may refuse, and it does so with a typed error.
    # A number geometry is L0 with L = (N-1)*L0 rounded to 12 decimals, which
    # is tight only up to float rounding: 3 * 0.1 > 0.3 and 3 * 0.3 < 0.9
    scenario = sample_scenario(n, k, snr_db, seed)
    tight = geometry != "default"
    if geometry == "tight":
        scenario = replace(scenario, aperture=(n - 1) * scenario.min_spacing)
    elif tight:
        scenario = replace(scenario, aperture=round((n - 1) * geometry, 12),
                           min_spacing=geometry)
    finals = {}
    for method in METHODS:
        options = AoOptions(method=method, max_rounds=8)
        if tight and method == "pdip":
            with pytest.raises(InfeasibleStartError):
                ao_optimize(scenario, options)
            continue
        report = ao_optimize(scenario, options)
        assert not report.status.startswith("position_solver_failed"), method
        hist = np.asarray(report.mse_history)
        assert np.all(np.diff(hist) <= 1e-9 * hist[:-1]), method
        assert is_feasible_positions(report.state.x, scenario.aperture,
                                     scenario.min_spacing), method
        finals[method] = report.state.mse
    if tight:
        # the feasible set is one point: moving the antennas cannot help
        for method in ("sca", "pgd"):
            assert finals[method] == pytest.approx(finals["fpa"], rel=1e-12, abs=0)


def test_degenerate_interior_rejects_pdip_start():
    # L == (N-1)*L0, including a single antenna on a zero-length segment
    for n, aperture, spacing in ((3, 1.0, 0.5), (1, 0.0, 0.0)):
        scenario = Scenario(n, [1.0, 0.8], [1.0, 2.0], [1.0, 1.0], 1.0,
                            aperture, spacing)
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


@pytest.mark.parametrize("method", ["pdip", "sca", "pgd"])
def test_each_point_is_steered_once(method, monkeypatch):
    # value, gradient, Hessian, surrogate and acceptance guard share one
    # steering evaluation per (weights, x) pair
    steered = ApvObjective.steered
    calls, points = [], set()

    def counted(self, x):
        x = np.asarray(x, dtype=float)
        weights = hashlib.sha1(self.magnitudes.tobytes() + self.phases.tobytes()
                               + self.spatial_freqs.tobytes()).digest()
        calls.append(1)
        points.add((weights, x.shape, x.tobytes()))
        return steered(self, x)

    monkeypatch.setattr(ApvObjective, "steered", counted)
    scenario = sample_scenario(4, 6, -5.0, seed=2)
    report = ao_optimize(scenario, AoOptions(method=method, max_rounds=8))
    assert report.rounds > 1
    assert len(calls) == len(points)


@pytest.mark.parametrize("accept", [True, False])
def test_guard_reads_the_solver_report(accept, monkeypatch):
    # the guard compares the reported g at the start and at the returned x;
    # it evaluates nothing itself
    def no_call(*args, **kwargs):
        raise AssertionError("the guard evaluated the objective")

    def solver(objective, constraints, x0):
        moved = x0 + 1e-3
        return SolveReport(x=moved, iterations=1, status="converged",
                           value_history=[2.0, 1.0 if accept else 3.0])

    for name in ("value", "gradient", "hessian"):
        monkeypatch.setattr(ApvObjective, name, no_call)
    monkeypatch.setattr("fluidaircomp.driver.solve_pdip", solver)
    scenario = sample_scenario(3, 2, 0.0, seed=4)
    report = ao_optimize(scenario, AoOptions(method="pdip", max_rounds=1))
    x0 = scenario.positions.interior()
    assert report.rounds == 1
    assert np.array_equal(report.state.x, x0 + 1e-3 if accept else x0)
