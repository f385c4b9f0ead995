"""The trend criteria 8a-8d, one function each.

Each function solves its criterion's paired Monte Carlo trials (50 per point,
fixed seeds) as one ExperimentConfig through experiments.sweep_reports, the
runner behind run_sweep, and returns the quantities that its test in
test_acceptance.py asserts on, with the seconds it took and its margins. A
margin is positive while its assertion holds; relative margins are fractions
of the larger side. scripts/margins.py prints them.
"""

from __future__ import annotations

import time
import warnings

import numpy as np

from fluidaircomp.driver import METHODS
from fluidaircomp.experiments import ExperimentConfig, sweep_reports

MONOTONE_SLACK = 1e-9
SECONDS_BUDGET = 600


def assert_monotone(history):
    hist = np.asarray(history)
    assert np.all(np.diff(hist) <= MONOTONE_SLACK), "MSE increased along a run"


def paired_reports(config):
    """Every cell's (value, {method: AoReport}) in cell order, with each
    trace checked to be monotone. A RuntimeWarning is an error during the
    run, as pyproject.toml makes it for the tests, and the forked pool's
    workers inherit that filter."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cells = [(value, reports) for value, _, reports in sweep_reports(config)]
    for _, reports in cells:
        for report in reports.values():
            assert_monotone(report.mse_history)
    return cells


def flatten_round(history, frac=1e-3):
    """First round whose MSE is within frac of the run's total improvement."""
    hist = np.asarray(history)
    threshold = hist[-1] + frac * (hist[0] - hist[-1])
    return int(np.argmax(hist <= threshold))


def _least_step(curve, rising):
    """The smallest relative step along a curve that must rise (or fall)."""
    return min((b - a) / b if rising else (a - b) / a for a, b in zip(curve, curve[1:]))


def _sweep_means(config):
    """Mean final MSE per method at each of the sweep's axis values."""
    finals = {m: {value: [] for value in config.values} for m in config.methods}
    for value, reports in paired_reports(config):
        for method, report in reports.items():
            finals[method][value].append(report.state.mse)
    return {m: [float(np.mean(finals[m][value])) for value in config.values]
            for m in config.methods}


def trace_shape():
    """8a: pdip's trace flattens within the round budget, sca's later."""
    start = time.perf_counter()
    cells = paired_reports(ExperimentConfig(
        sweep="trace", values=(), n=10, k=100, snr_db=-10.0, methods=("pdip", "sca"),
        trials=50, seed=8100, tol_mse=0.0, max_rounds=100, workers=0))
    t_pdip = [flatten_round(reports["pdip"].mse_history) for _, reports in cells]
    t_sca = [flatten_round(reports["sca"].mse_history) for _, reports in cells]
    mse = {m: float(np.mean([reports[m].state.mse for _, reports in cells]))
           for m in ("pdip", "sca")}
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
    means = _sweep_means(ExperimentConfig(
        sweep="snr", values=snrs, n=10, k=10, methods=METHODS,
        trials=50, seed=8200, tol_mse=1e-5, max_rounds=60, workers=0))
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
    means = _sweep_means(ExperimentConfig(
        sweep="n", values=sizes, k=10, snr_db=-10.0, methods=("pdip", "fpa"),
        trials=50, seed=8300, tol_mse=1e-5, max_rounds=60, workers=0))
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
    means = _sweep_means(ExperimentConfig(
        sweep="k", values=counts, n=10, snr_db=-10.0, methods=("pdip", "sca", "fpa"),
        trials=50, seed=8400, tol_mse=1e-5, max_rounds=60, workers=0))
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
