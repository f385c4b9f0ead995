import hashlib
import itertools
import sys
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from oracles import is_feasible_positions
from util import warmed_objective

import fluidaircomp as fa
from fluidaircomp import apv_objective, driver, model
from fluidaircomp.apv_objective import ApvObjective
from fluidaircomp.driver import METHODS, AoOptions, ao_optimize
from fluidaircomp.model import (InfeasibleStartError, PositionSet, Scenario, SolveReport,
                               channel_matrix, mse, sample_scenario)
from fluidaircomp.pdip import solve_pdip
from fluidaircomp.pgd import solve_pgd
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
    # p0 = 1e26 puts every |m^H h_k| near 1e-13, below any absolute threshold
    # of order 1e-12 on it
    scenarios = [sample_scenario(4, 5, -5.0, seed=seed) for seed in (0, 1, 2)]
    scenarios.append(sample_scenario(10, 10, 0.0, seed=3, p0=1e26))
    for scenario in scenarios:
        report = ao_optimize(scenario, AoOptions(method=method, max_rounds=25))
        hist = np.asarray(report.mse_history)
        assert np.all(np.diff(hist) <= 1e-9)


@pytest.mark.parametrize("method", METHODS)
def test_power_scale_symmetry_is_exact(method):
    # scaling every P_k and sigma2 by 4^j leaves the problem unchanged with
    # b -> 2^j b and m -> 2^-j m, and every step of a round keeps that exact
    for n, k, snr_db, seed in ((4, 4, 0.0, 0), (4, 3, -10.0, 1), (3, 5, 10.0, 2)):
        options = AoOptions(method=method, max_rounds=8)
        base = ao_optimize(sample_scenario(n, k, snr_db, seed=seed), options)
        for j in range(-100, 61, 10):
            report = ao_optimize(sample_scenario(n, k, snr_db, seed=seed, p0=4.0**j), options)
            assert report.mse_history == base.mse_history, j
            assert report.status == base.status
            assert np.array_equal(report.state.x, base.state.x)
            assert np.array_equal(report.state.b, base.state.b * 2.0**j)
            assert np.array_equal(report.state.m, base.state.m * 2.0**-j)


@pytest.mark.parametrize("method", METHODS)
def test_final_state_feasible(method):
    scenario = sample_scenario(3, 4, 0.0, seed=7)
    report = ao_optimize(scenario, AoOptions(method=method, max_rounds=15))
    state = report.state
    assert np.all(np.abs(state.b) ** 2 <= scenario.powers + 1e-12)
    assert is_feasible_positions(state.x, scenario.aperture, scenario.min_spacing)
    assert state.mse == pytest.approx(
        mse(state.b, state.m, channel_matrix(scenario, state.x), scenario.sigma2), abs=1e-12)


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


def test_package_namespace_is_its_entry_points():
    # the layers are imported from their modules; the package keeps the
    # entry points, and the README example runs through them
    assert sorted(fa.__all__) == sorted([
        "sample_scenario", "Scenario", "ao_optimize", "AoOptions", "AoReport",
        "METHODS", "ExperimentConfig", "parse_config", "run_sweep", "sweep_reports"])
    assert all(getattr(fa, name) is not None for name in fa.__all__)
    scenario = fa.sample_scenario(n_antennas=4, n_users=3, snr_db=-10, seed=0)
    report = fa.ao_optimize(scenario, fa.AoOptions(method="pdip", max_rounds=5))
    assert isinstance(report, fa.AoReport)
    assert report.state.mse == report.mse_history[-1] and 1 <= report.rounds <= 5


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


@pytest.mark.parametrize("name, value", [
    ("method", "pdipp"), ("max_rounds", 0), ("tol_mse", float("nan")),
], ids=["method", "max-rounds", "tol-mse"])
def test_options_are_frozen(name, value):
    # the fields are checked on construction only, so assigning one later
    # would bypass the checks (an unknown method would silently run fpa)
    options = AoOptions("pdip", 10)
    with pytest.raises(FrozenInstanceError):
        setattr(options, name, value)
    with pytest.raises(ValueError):
        replace(options, **{name: value})


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


def test_edges_keep_every_method_running():
    # N = 1, K = 1, extreme SNR and L = (N-1)*L0: only pdip, which needs a
    # strictly interior start, may refuse, and it does so with a typed error.
    # A number geometry is L0 with L = (N-1)*L0 rounded to 12 decimals, which
    # is tight only up to float rounding: 3 * 0.1 > 0.3 and 3 * 0.3 < 0.9
    rng = np.random.default_rng(13)
    cases = [(4, 3, 0.0, 0.1, 0), (4, 3, 0.0, 0.3, 0), (4, 2, 100.0, "default", 2),
             (4, 2, 100.0, "default", 3), (2, 2, 100.0, "default", 8)]
    cases += [(*edge, int(rng.integers(0, 2**16 + 1))) for edge in itertools.product(
        range(1, 5), range(1, 4), (-100.0, 0.0, 100.0), ("default", "tight", 0.1, 0.3))]
    for case in cases:
        n, k, snr_db, geometry, seed = case
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
            assert not report.status.startswith("position_solver_failed"), (case, method)
            hist = np.asarray(report.mse_history)
            assert np.all(np.diff(hist) <= 1e-9 * hist[:-1]), (case, method)
            assert is_feasible_positions(report.state.x, scenario.aperture,
                                         scenario.min_spacing), (case, method)
            finals[method] = report.state.mse
        if tight:
            # the feasible set is one point: moving the antennas cannot help
            for method in ("sca", "pgd"):
                assert finals[method] == pytest.approx(finals["fpa"], rel=1e-12,
                                                       abs=0), (case, method)


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
    # residual evaluation per (b, m, x); h(x) stands for x
    residual = apv_objective.residual
    calls, points = [], set()

    def counted(b, m, h):
        calls.append(1)
        points.add(hashlib.sha1(b.tobytes() + m.tobytes() + h.tobytes()).digest())
        return residual(b, m, h)

    monkeypatch.setattr(apv_objective, "residual", counted)
    scenario = sample_scenario(4, 6, -5.0, seed=2)
    report = ao_optimize(scenario, AoOptions(method=method, max_rounds=8))
    assert report.rounds > 1
    assert len(calls) >= report.rounds
    assert len(calls) == len(points)


@pytest.mark.parametrize("method", METHODS)
def test_one_exponential_per_distinct_point(method, monkeypatch):
    # the driver hands its channel matrix to each round's objective and reads
    # the next one back from it, so a run forms exp(j phi x) once per
    # distinct x it evaluates
    steering = model.steering
    points = []

    def counted(x, spatial_freqs):
        assert x.ndim == 1
        points.append(x.tobytes())
        return steering(x, spatial_freqs)

    monkeypatch.setattr(model, "steering", counted)
    monkeypatch.setattr(apv_objective, "steering", counted)
    scenario = sample_scenario(4, 6, -5.0, seed=2)
    report = ao_optimize(scenario, AoOptions(method=method, max_rounds=8))
    assert report.rounds > 1
    assert len(points) == len(set(points))
    if method == "fpa":
        assert len(points) == 1


@pytest.mark.parametrize("solve", [solve_pdip, solve_sca, solve_pgd],
                         ids=["pdip", "sca", "pgd"])
def test_position_steps_share_one_call(solve):
    # the driver calls every position step as solve(objective, positions, x),
    # and its guard reads g at the start from value_history[0]
    positions, objective, _ = warmed_objective(seed=1, n_antennas=4, n_users=3)
    x0 = positions.interior()
    report = solve(objective, positions, x0)
    assert report.value_history[0] == objective.value(x0)
    assert np.max(positions.values(report.x)) <= positions.tolerance


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("slot", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("solve", [solve_pdip, solve_sca, solve_pgd],
                         ids=["pdip", "sca", "pgd"])
def test_position_steps_reject_non_finite_starts(solve, slot, bad):
    # a NaN compares False against every bound, so only an explicit finiteness
    # test keeps it (and inf, without a warning from the constraint rows) out
    positions, objective, _ = warmed_objective(seed=0, n_antennas=3, n_users=2)
    x0 = positions.interior()
    x0[slot] = bad
    with pytest.raises(InfeasibleStartError):
        positions.check(x0)
    with pytest.raises(InfeasibleStartError):
        solve(objective, positions, x0)


@pytest.mark.parametrize("accept", [True, False])
def test_guard_reads_the_solver_report(accept, monkeypatch):
    # the guard compares the reported g at the start and at the returned x;
    # it evaluates nothing itself
    def no_call(*args, **kwargs):
        raise AssertionError("the guard evaluated the objective")

    def solver(objective, positions, x0):
        moved = x0 + 1e-3
        return SolveReport(x=moved, status="converged",
                           value_history=[2.0, 1.0 if accept else 3.0])

    for name in ("value", "gradient", "hessian"):
        monkeypatch.setattr(ApvObjective, name, no_call)
    monkeypatch.setattr("fluidaircomp.driver.solve_pdip", solver)
    scenario = sample_scenario(3, 2, 0.0, seed=4)
    report = ao_optimize(scenario, AoOptions(method="pdip", max_rounds=1))
    x0 = scenario.positions.interior()
    assert report.rounds == 1
    assert np.array_equal(report.state.x, x0 + 1e-3 if accept else x0)


@pytest.mark.parametrize("method", METHODS)
def test_one_channel_matrix_per_distinct_x(method, monkeypatch):
    # only the position step moves x, so the driver holds a new H at the
    # start and again only when a step moves x, each channel_matrix's H at
    # its x; the m, b and MSE layers take it as given. The driver calls
    # channel_matrix once, at the start, and reads every later H from the
    # position objective. On tight geometry every step returns its start, so
    # H is formed once (pdip refuses that geometry before forming any)
    formed, held, calls = [], [], []
    form, mse_of = driver.channel_matrix, driver.mse

    def counted(scenario, x):
        calls.append(1)
        return form(scenario, x)

    def counted_mse(b, m, h, sigma2):
        # the driver hands the H it holds to mse at the start and every round
        if not formed or h is not formed[-1]:
            formed.append(h)
        return mse_of(b, m, h, sigma2)

    def no_call(*args, **kwargs):
        raise AssertionError("channel_matrix called outside the driver")

    def spy(solve):
        def step(objective, positions, x0):
            held.append(np.array(x0))
            return solve(objective, positions, x0)
        return step

    for name, module in list(sys.modules.items()):
        if name.startswith("fluidaircomp") and getattr(module, "channel_matrix", None) is form:
            monkeypatch.setattr(module, "channel_matrix", counted if module is driver else no_call)
    monkeypatch.setattr(driver, "mse", counted_mse)
    for name in ("solve_pdip", "solve_sca", "solve_pgd"):
        monkeypatch.setattr(driver, name, spy(getattr(driver, name)))
    scenario = sample_scenario(4, 6, -5.0, seed=2)
    for tight in (False, True):
        formed.clear()
        held.clear()
        calls.clear()
        if tight:
            scenario = replace(scenario, aperture=3 * scenario.min_spacing)
        if tight and method == "pdip":
            with pytest.raises(InfeasibleStartError):
                ao_optimize(scenario, AoOptions(method=method, max_rounds=8))
            assert formed == [] and calls == []
            continue
        report = ao_optimize(scenario, AoOptions(method=method, max_rounds=8))
        assert len(calls) == 1
        # the x the driver held, round by round, then the final one
        held.append(report.state.x)
        distinct = [x for i, x in enumerate(held)
                    if i == 0 or not np.array_equal(x, held[i - 1])]
        assert len(formed) == len(distinct)
        assert all(h.tobytes() == form(scenario, x).tobytes()
                   for h, x in zip(formed, distinct))
        assert (len(formed) == 1) == (tight or method == "fpa")
        assert report.rounds > 1
