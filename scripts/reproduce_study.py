#!/usr/bin/env python3
"""Run the full desk-scale study: a convergence trace plus SNR, array-size,
and user-count sweeps for all four methods. Writes one CSV per experiment.

The experiments are the files in configs/; --seed, --workers and (except for
the single-trial trace) --trials override theirs."""

import argparse
import os
import time
from dataclasses import replace
from pathlib import Path

from fluidaircomp.experiments import parse_config, run_sweep

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# configs/<name>.cfg in study order, each with its --quick sizes for a smoke run
QUICK = {
    "trace": dict(n=4, k=10, max_rounds=20),
    "snr_sweep": dict(n=4, k=4, trials=2, max_rounds=20),
    "n_sweep": dict(values=(2.0, 4.0), k=4, trials=2, max_rounds=20),
    "k_sweep": dict(values=(2.0, 6.0), n=4, trials=2, max_rounds=20),
}


def build_experiments(trials, seed, workers, quick):
    experiments = []
    for name, sizes in QUICK.items():
        config = replace(parse_config(str(CONFIGS / f"{name}.cfg")),
                         seed=seed, workers=workers)
        if config.sweep != "trace":
            config = replace(config, trials=trials)
        if quick:
            config = replace(config, **sizes)
        experiments.append((f"{name}.csv", config))
    return experiments


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for a smoke run")
    args = parser.parse_args()

    experiments = build_experiments(args.trials, args.seed, args.workers, args.quick)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, config in experiments:
        path = os.path.join(args.out_dir, name)
        start = time.perf_counter()
        run_sweep(config, path)
        print(f"{name:14s} -> {path}  ({time.perf_counter() - start:.1f}s)")


if __name__ == "__main__":
    main()
