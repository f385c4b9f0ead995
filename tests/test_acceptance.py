"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The trend tests (criterion 8)
run 50 paired Monte Carlo trials each and dominate the runtime; every one of
them is budgeted to finish within 10 minutes on a single core.
"""

import time
from contextlib import contextmanager

import numpy as np

from oracles import (coefficient_matrix, cross_lower_bound, cross_term, fd_gradient,
                     grid_search_refined, power_term, power_upper_bound,
                     qp_active_set_reference, stacked_values, update_b_single)
from trends import (array_size_sweep_shape, assert_monotone, snr_sweep_shape, trace_shape,
                    user_count_sweep_shape)
from util import random_feasible_positions, random_state, random_weights

from fluidaircomp.apv_objective import effective_weights
from fluidaircomp.closed_form import update_m
from fluidaircomp.driver import METHODS, AoOptions, ao_optimize
from fluidaircomp.experiments import ExperimentConfig, run_sweep
from fluidaircomp.model import PositionSet, channel_matrix, mse, sample_scenario
from fluidaircomp.pdip import solve_pdip
from fluidaircomp.pgd import project_feasible
from fluidaircomp.sca import QuadraticObjective, build_surrogate


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {num}: {description}")
        raise
    print(f"PASS  criterion {num}: {description}")


def test_criterion_1_kkt_b_update_vs_brute_force():
    with criterion(1, "closed-form b update matches the polar brute force"):
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        phases = np.exp(1j * np.linspace(0, 2 * np.pi, 720, endpoint=False))
        for _ in range(1000):
            dim = int(rng.integers(1, 5))
            m = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            h = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            p_max = float(rng.uniform(0.25, 4.0))
            b = update_b_single(m, h, p_max)

            c = complex(np.vdot(m, h))
            mags = np.linspace(0.0, np.sqrt(p_max), 400)
            grid = np.outer(mags, phases).ravel()
            vals = np.abs(c * grid - 1.0) ** 2
            b_ref = grid[int(np.argmin(vals))]

            assert abs(abs(b) - abs(b_ref)) <= 1e-2
            assert abs(c * b - 1.0) ** 2 <= np.min(vals) + 1e-12
            mu = max(abs(c) / np.sqrt(p_max) - abs(c) ** 2, 0.0)
            assert abs(mu * (abs(b) ** 2 - p_max)) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"b-update acceptance took {elapsed:.1f}s"


def test_criterion_2_m_update_stationarity():
    with criterion(2, "MSE gradient vanishes at the least-squares decoder"):
        rng = np.random.default_rng(1002)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, 17))
            scenario = sample_scenario(n, k, float(rng.uniform(-10, 10)),
                                       seed=int(rng.integers(1 << 31)))
            x = random_feasible_positions(rng, n, scenario.aperture,
                                          scenario.min_spacing)
            h = channel_matrix(scenario, x)
            b, m_rand = random_state(rng, scenario)
            m_star = update_m(b, h, scenario.sigma2)

            def mse_of(vec):
                return mse(b, vec[:n] + 1j * vec[n:], h, scenario.sigma2)

            grad_star = fd_gradient(mse_of, np.concatenate([m_star.real, m_star.imag]))
            grad_rand = fd_gradient(mse_of, np.concatenate([m_rand.real, m_rand.imag]))
            bound = 1e-6 * (1.0 + np.linalg.norm(grad_rand))
            assert np.linalg.norm(grad_star) < bound


def test_criterion_3_apv_objective_and_derivatives():
    with criterion(3, "position objective matches steering vectors and finite differences"):
        rng = np.random.default_rng(1003)
        for _ in range(200):
            k_users = int(rng.integers(1, 6))
            n = int(rng.integers(1, 7))
            obj = weights = random_weights(rng, k_users, n,
                                           zero_frac=0.1 if rng.random() < 0.3 else 0.0)
            x = rng.uniform(-0.5, n + 0.5, n)

            direct = 0.0
            for k in range(k_users):
                w = coefficient_matrix(weights)[k].conj()
                inner = np.vdot(w, np.exp(1j * weights.spatial_freqs[k] * x))
                assert abs(power_term(weights, k, x) - abs(inner) ** 2) <= 1e-10
                assert abs(cross_term(weights, k, x) - 2 * inner.real) <= 1e-10
                direct += abs(inner - 1.0) ** 2
            assert abs(obj.value(x) - direct) <= 1e-10

            grad = obj.gradient(x)
            fd_grad = fd_gradient(obj.value, x, h=1e-6)
            assert (np.max(np.abs(grad - fd_grad))
                    / max(1.0, np.max(np.abs(fd_grad)))) < 1e-5
            hess = obj.hessian(x)
            fd_hess = _fd_hessian_from_grad(obj, x)
            assert (np.max(np.abs(hess - fd_hess))
                    / max(1.0, np.max(np.abs(fd_hess)))) < 1e-4


def _fd_hessian_from_grad(obj, x, h=1e-6):
    n = x.size
    hess = np.zeros((n, n))
    for i in range(n):
        step = np.zeros(n)
        step[i] = h
        hess[i] = (obj.gradient(x + step) - obj.gradient(x - step)) / (2 * h)
    return 0.5 * (hess + hess.T)


def test_criterion_4_sca_surrogate_soundness():
    with criterion(4, "SCA surrogate is tight, majorizing, and PSD"):
        rng = np.random.default_rng(1004)
        for _ in range(50):
            k_users = int(rng.integers(1, 6))
            n = int(rng.integers(1, 7))
            obj = weights = random_weights(rng, k_users, n)
            anchor = rng.uniform(0, n, n)
            samples = rng.uniform(-0.5, n + 0.5, (1000, n))

            surrogate = build_surrogate(obj, anchor)
            assert np.linalg.eigvalsh(surrogate.quad).min() >= -1e-9
            level = obj.value(anchor)
            assert abs(surrogate.value(anchor) - level) <= 1e-8 * (1 + abs(level))

            surr_vals = (np.einsum("ij,jk,ik->i", samples, surrogate.quad, samples)
                         + samples @ surrogate.lin + surrogate.const)
            true_vals = stacked_values(obj, samples)
            assert np.all(surr_vals >= true_vals - 1e-8)

            for k in range(k_users):
                w = coefficient_matrix(weights)[k].conj()
                inner = np.exp(1j * weights.spatial_freqs[k] * samples) @ w.conj()
                quad, lin, const = power_upper_bound(weights, k, anchor)
                upper = (np.einsum("ij,jk,ik->i", samples, quad, samples)
                         - samples @ lin + const)
                assert np.all(upper >= np.abs(inner) ** 2 - 1e-8)
                quad, lin, const = cross_lower_bound(weights, k, anchor)
                lower = (-np.einsum("ij,jk,ik->i", samples, quad, samples)
                         + 2.0 * samples @ lin + 2.0 * const)
                assert np.all(lower <= 2.0 * inner.real + 1e-8)


def test_criterion_5_pdip_on_convex_instances():
    with criterion(5, "interior-point solver is exact on convex QPs"):
        rng = np.random.default_rng(1005)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            length = float(rng.uniform(max(1.0, 0.5 * (n - 1) + 0.2), 3 * n))
            positions = PositionSet(n, length, 0.5)
            root = rng.normal(size=(n, n))
            quad = root @ root.T + 0.1 * np.eye(n)
            lin = rng.normal(size=n) * 2.0
            qp = QuadraticObjective(quad, lin)

            report = solve_pdip(qp, positions, positions.interior())
            ref = qp_active_set_reference(quad, lin, positions)
            assert report.converged
            assert report.dual_residual <= 1e-8
            assert report.duality_gap <= 1e-8
            assert np.max(np.abs(report.x - ref)) <= 1e-6
            assert abs(report.value - qp.value(ref)) <= 1e-6 * (1 + abs(report.value))


def test_criterion_6_projection_exactness():
    with criterion(6, "chain projection matches the active-set oracle"):
        rng = np.random.default_rng(1006)
        # the second inputs come from their own generator, so the oracle
        # cases are rng's alone
        other = np.random.default_rng(2006)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            length = float(rng.uniform(0.5 * (n - 1) + 0.1, 3 * n))
            v = rng.uniform(-length, 2 * length, n)
            u = other.uniform(-length, 2 * length, n)
            positions = PositionSet(n, length, 0.5)
            proj = project_feasible(v, positions)
            ref = qp_active_set_reference(np.eye(n), -2.0 * v, positions)
            assert np.max(np.abs(proj - ref)) <= 1e-8
            again = project_feasible(proj, positions)
            assert np.max(np.abs(again - proj)) <= 1e-13
            assert (np.linalg.norm(proj - project_feasible(u, positions))
                    <= np.linalg.norm(v - u) + 1e-12)


def test_criterion_7_monotone_mse_across_methods():
    with criterion(7, "MSE history is non-increasing for every method and run"):
        rng = np.random.default_rng(1007)
        for n in (1, 2, 4):
            for k in (1, 3, 8):
                for snr in (-10.0, 0.0, 10.0):
                    scenario = sample_scenario(n, k, snr,
                                               seed=int(rng.integers(1 << 31)))
                    for method in METHODS:
                        report = ao_optimize(scenario, AoOptions(
                            method=method, max_rounds=30))
                        assert_monotone(report.mse_history)


def test_criterion_8a_trace_shape():
    with criterion(8, "a: proposed trace flattens within the round budget, SCA later"):
        start = time.perf_counter()
        result = trace_shape()
        t_pdip, t_sca, mse_means = result["t_pdip"], result["t_sca"], result["mse"]
        assert max(t_pdip) <= 100
        assert np.mean(t_pdip) <= 70  # converges within a few dozen rounds
        assert np.mean(t_sca) >= np.mean(t_pdip)
        assert mse_means["pdip"] <= mse_means["sca"]
        assert time.perf_counter() - start < 600


def test_criterion_8b_snr_sweep_shape():
    with criterion(8, "b: MSE falls with SNR, proposed beats FPA, gap narrows"):
        start = time.perf_counter()
        result = snr_sweep_shape()
        snrs, means, gap = result["snrs"], result["means"], result["gap"]
        for method in METHODS:
            curve = means[method]
            assert all(b < a for a, b in zip(curve, curve[1:])), \
                f"{method} MSE not strictly decreasing in SNR: {curve}"
        for i in range(len(snrs)):
            assert means["pdip"][i] <= means["fpa"][i] + 1e-12
        assert gap[-1] < gap[0]  # narrower at high SNR
        assert time.perf_counter() - start < 600


def test_criterion_8c_array_size_sweep_shape():
    with criterion(8, "c: MSE falls as the array grows, proposed beats FPA"):
        start = time.perf_counter()
        result = array_size_sweep_shape()
        sizes, means = result["sizes"], result["means"]
        for method, curve in means.items():
            assert all(b < a for a, b in zip(curve, curve[1:])), \
                f"{method} MSE not strictly decreasing in N: {curve}"
        for i in range(len(sizes)):
            assert means["pdip"][i] < means["fpa"][i]
        assert time.perf_counter() - start < 600


def test_criterion_8d_user_count_sweep_shape():
    with criterion(8, "d: MSE rises with users, proposed stays ahead, gap widens"):
        start = time.perf_counter()
        result = user_count_sweep_shape()
        counts, means, fpa_gap = result["counts"], result["means"], result["fpa_gap"]
        for method, curve in means.items():
            assert all(b > a for a, b in zip(curve, curve[1:])), \
                f"{method} MSE not increasing in K: {curve}"
        for i in range(len(counts)):
            assert means["pdip"][i] <= means["sca"][i] * 1.005
            assert means["pdip"][i] < means["fpa"][i]
        assert fpa_gap[-1] > fpa_gap[0]  # widens with K
        assert time.perf_counter() - start < 600


def test_criterion_9_small_instance_global_sanity():
    with criterion(9, "small instances land near the dense-grid optimum"):
        hits = 0
        for seed in range(50):
            scenario = sample_scenario(2, 2, -5.0, seed=9000 + seed)
            report = ao_optimize(scenario, AoOptions(method="pdip",
                                                     max_rounds=60))
            state = report.state
            obj = effective_weights(state.b, state.m, scenario, state.x,
                                    channel_matrix(scenario, state.x))
            _, g_best = grid_search_refined(obj, scenario.aperture,
                                            scenario.min_spacing,
                                            resolution=0.01)
            if obj.value(state.x) <= g_best + 1e-3:
                hits += 1
        assert hits >= 40, f"only {hits}/50 instances reached the grid optimum"


def test_criterion_10_deterministic_csv(tmp_path):
    with criterion(10, "re-running a sweep reproduces the CSV byte for byte"):
        config = ExperimentConfig(sweep="k", values=(2.0, 3.0), n=2, k=2,
                                  snr_db=-5.0, methods=METHODS, trials=2,
                                  seed=77, max_rounds=6)
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        run_sweep(config, str(first))
        run_sweep(config, str(second))
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes().startswith(b"axis,value,trial,method,mse,")
