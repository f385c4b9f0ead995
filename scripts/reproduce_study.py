#!/usr/bin/env python3
"""Run the full desk-scale study: a convergence trace plus SNR, array-size,
and user-count sweeps for all four methods. Writes one CSV per experiment."""

import argparse
import os
import time
from dataclasses import replace

from fluidaircomp.experiments import ExperimentConfig, run_sweep


def build_experiments(trials, seed, quick):
    n, k_trace = (4, 10) if quick else (10, 100)
    trials = 2 if quick else trials
    rounds = 20 if quick else 60
    common = dict(trials=trials, seed=seed, tol_mse=1e-5, max_rounds=rounds)
    return [
        ("trace.csv", ExperimentConfig(
            sweep="trace", values=(), n=n, k=k_trace, snr_db=-10.0, trials=1, seed=seed,
            max_rounds=100 if not quick else 20)),
        ("snr_sweep.csv", ExperimentConfig(
            sweep="snr", values=(-10.0, -5.0, 0.0, 5.0, 10.0), n=n, k=n, **common)),
        ("n_sweep.csv", ExperimentConfig(
            sweep="n", values=(5.0, 10.0, 15.0) if not quick else (2.0, 4.0),
            k=n, snr_db=-10.0, **common)),
        ("k_sweep.csv", ExperimentConfig(
            sweep="k", values=(10.0, 50.0, 100.0) if not quick else (2.0, 6.0),
            n=n, snr_db=-10.0, **common)),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for a smoke run")
    args = parser.parse_args()

    experiments = [(name, replace(config, workers=args.workers))
                   for name, config in build_experiments(args.trials, args.seed, args.quick)]
    os.makedirs(args.out_dir, exist_ok=True)
    for name, config in experiments:
        path = os.path.join(args.out_dir, name)
        start = time.perf_counter()
        run_sweep(config, path)
        print(f"{name:14s} -> {path}  ({time.perf_counter() - start:.1f}s)")


if __name__ == "__main__":
    main()
