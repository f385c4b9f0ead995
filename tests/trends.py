"""The trend criteria 8a-8d, one function each.

Each function runs its criterion's paired Monte Carlo trials (50 per point,
fixed seeds) and returns the quantities that its test in test_acceptance.py
asserts on, with the seconds it took and its margins. A margin is positive
while its assertion holds; relative margins are fractions of the larger side.
scripts/margins.py prints them.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from fluidaircomp.driver import METHODS, AoOptions, ao_optimize
from fluidaircomp.model import sample_scenario

MONOTONE_SLACK = 1e-9
SECONDS_BUDGET = 600


def assert_monotone(history):
    hist = np.asarray(history)
    assert np.all(np.diff(hist) <= MONOTONE_SLACK), "MSE increased along a run"


def _paired_trial(args):
    """(final MSE, rounds, trace) per method on one trial's scenario. A
    spawned worker does not inherit pytest's warning filters, so it makes a
    RuntimeWarning an error itself, as pyproject.toml does for the tests."""
    warnings.simplefilter("error", RuntimeWarning)
    methods, n, k, snr, seed, tol_mse, max_rounds = args
    scenario = sample_scenario(n, k, snr, seed=seed)
    results = []
    for method in methods:
        report = ao_optimize(scenario, AoOptions(
            method=method, max_rounds=max_rounds, tol_mse=tol_mse))
        assert_monotone(report.mse_history)
        results.append((report.state.mse, report.rounds, report.mse_history))
    return results


def run_paired(methods, n, k, snr, trials, seed0, tol_mse, max_rounds):
    """Final MSE, rounds, and traces per method on shared scenarios, in trial
    order. The trials are independent, so they run on one pool of spawned
    worker processes."""
    cells = [(methods, n, k, snr, seed0 + trial, tol_mse, max_rounds)
             for trial in range(trials)]
    out = {m: {"mse": [], "rounds": [], "hist": []} for m in methods}
    with ProcessPoolExecutor(max_workers=min(os.cpu_count() or 1, trials),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        for results in pool.map(_paired_trial, cells):
            for method, (mse_val, rounds, hist) in zip(methods, results):
                out[method]["mse"].append(mse_val)
                out[method]["rounds"].append(rounds)
                out[method]["hist"].append(hist)
    return out


def flatten_round(history, frac=1e-3):
    """First round whose MSE is within frac of the run's total improvement."""
    hist = np.asarray(history)
    threshold = hist[-1] + frac * (hist[0] - hist[-1])
    return int(np.argmax(hist <= threshold))


def _least_step(curve, rising):
    """The smallest relative step along a curve that must rise (or fall)."""
    return min((b - a) / b if rising else (a - b) / a for a, b in zip(curve, curve[1:]))


def _sweep_means(methods, axis, point):
    """Mean final MSE per method at each axis value, from run_paired(**point(v))."""
    means = {m: [] for m in methods}
    for value in axis:
        runs = run_paired(methods, **point(value))
        for method in methods:
            means[method].append(float(np.mean(runs[method]["mse"])))
    return means


def trace_shape():
    """8a: pdip's trace flattens within the round budget, sca's later."""
    start = time.perf_counter()
    runs = run_paired(("pdip", "sca"), n=10, k=100, snr=-10.0, trials=50,
                      seed0=8100, tol_mse=0.0, max_rounds=100)
    t_pdip = [flatten_round(h) for h in runs["pdip"]["hist"]]
    t_sca = [flatten_round(h) for h in runs["sca"]["hist"]]
    mse = {m: float(np.mean(runs[m]["mse"])) for m in runs}
    seconds = time.perf_counter() - start
    return {"t_pdip": t_pdip, "t_sca": t_sca, "mse": mse, "seconds": seconds,
            "margins": {
                "100 - max pdip flatten round": 100 - max(t_pdip),
                "70 - mean pdip flatten round": 70 - np.mean(t_pdip),
                "mean flatten round sca - pdip": np.mean(t_sca) - np.mean(t_pdip),
                "mean mse (sca - pdip) / sca": (mse["sca"] - mse["pdip"]) / mse["sca"],
                "600 s - seconds": SECONDS_BUDGET - seconds}}


def snr_sweep_shape():
    """8b: the MSE falls with SNR, pdip beats fpa, and the gap narrows."""
    start = time.perf_counter()
    snrs = (-10.0, -5.0, 0.0, 5.0, 10.0)
    means = _sweep_means(METHODS, snrs, lambda snr: dict(
        n=10, k=10, snr=snr, trials=50, seed0=8200, tol_mse=1e-5, max_rounds=60))
    gap = [f - p for f, p in zip(means["fpa"], means["pdip"])]
    seconds = time.perf_counter() - start
    margins = {f"least relative fall, {m}": _least_step(means[m], rising=False)
               for m in METHODS}
    margins.update({
        "least (fpa + 1e-12 - pdip) / fpa": min(
            (f + 1e-12 - p) / f for f, p in zip(means["fpa"], means["pdip"])),
        "gap narrowing gap[0] - gap[-1]": gap[0] - gap[-1],
        "600 s - seconds": SECONDS_BUDGET - seconds})
    return {"snrs": snrs, "means": means, "gap": gap, "seconds": seconds,
            "margins": margins}


def array_size_sweep_shape():
    """8c: the MSE falls as the array grows, and pdip beats fpa."""
    start = time.perf_counter()
    sizes = (5, 10, 15)
    means = _sweep_means(("pdip", "fpa"), sizes, lambda n: dict(
        n=n, k=10, snr=-10.0, trials=50, seed0=8300, tol_mse=1e-5, max_rounds=60))
    seconds = time.perf_counter() - start
    margins = {f"least relative fall, {m}": _least_step(curve, rising=False)
               for m, curve in means.items()}
    margins.update({
        "least (fpa - pdip) / fpa": min(
            (f - p) / f for f, p in zip(means["fpa"], means["pdip"])),
        "600 s - seconds": SECONDS_BUDGET - seconds})
    return {"sizes": sizes, "means": means, "seconds": seconds, "margins": margins}


def user_count_sweep_shape():
    """8d: the MSE rises with users, pdip stays ahead, and fpa's gap widens."""
    start = time.perf_counter()
    counts = (10, 50, 100)
    means = _sweep_means(("pdip", "sca", "fpa"), counts, lambda k: dict(
        n=10, k=k, snr=-10.0, trials=50, seed0=8400, tol_mse=1e-5, max_rounds=60))
    fpa_gap = [f - p for f, p in zip(means["fpa"], means["pdip"])]
    seconds = time.perf_counter() - start
    margins = {f"least relative rise, {m}": _least_step(curve, rising=True)
               for m, curve in means.items()}
    margins.update({
        "least (1.005 sca - pdip) / (1.005 sca)": min(
            (1.005 * s - p) / (1.005 * s) for s, p in zip(means["sca"], means["pdip"])),
        "least (fpa - pdip) / fpa": min(
            (f - p) / f for f, p in zip(means["fpa"], means["pdip"])),
        "gap widening fpa_gap[-1] - fpa_gap[0]": fpa_gap[-1] - fpa_gap[0],
        "600 s - seconds": SECONDS_BUDGET - seconds})
    return {"counts": counts, "means": means, "fpa_gap": fpa_gap, "seconds": seconds,
            "margins": margins}


CRITERIA = {"8a": trace_shape, "8b": snr_sweep_shape, "8c": array_size_sweep_shape,
            "8d": user_count_sweep_shape}
