#!/usr/bin/env python3
"""Run the full desk-scale study: a convergence trace plus SNR, array-size,
and user-count sweeps for all four methods. Writes one CSV per experiment.

The experiments are the files in configs/, each written under --out-dir to
the name its `out` key gives. Every setting is the config's own, except that
--seed, --workers and (but for the single-trial trace) --trials override it
when given, as in `fluidaircomp run`."""

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
        config = parse_config(str(CONFIGS / f"{name}.cfg"))
        flags = dict(seed=seed, workers=workers,
                     trials=None if config.sweep == "trace" else trials)
        config = replace(config, **{key: value for key, value in flags.items()
                                    if value is not None})
        experiments.append(replace(config, **sizes) if quick else config)
    return experiments


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--trials", type=int, help="trial count (overrides the sweeps')")
    parser.add_argument("--seed", type=int, help="base seed (overrides the configs')")
    parser.add_argument("--workers", type=int, help="process count (overrides the configs')")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for a smoke run")
    args = parser.parse_args()

    experiments = build_experiments(args.trials, args.seed, args.workers, args.quick)
    os.makedirs(args.out_dir, exist_ok=True)
    for config in experiments:
        path = os.path.join(args.out_dir, config.out)
        start = time.perf_counter()
        run_sweep(config, path)
        print(f"{config.out:14s} -> {path}  ({time.perf_counter() - start:.1f}s)")


if __name__ == "__main__":
    main()
