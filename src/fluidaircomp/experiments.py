"""Monte Carlo sweeps over SNR, array size, and user count, plus single-run traces.

All methods in a given (axis value, trial) cell see the byte-identical
scenario (seed = base seed + trial), so comparisons are paired. Cells are
independent work items and may run in one process pool per sweep; results
come back in cell order, each cell's rows in trial, method and round order,
so the CSV does not depend on the worker count.
"""

from __future__ import annotations

import csv
import math
import os
import re
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass, fields
from itertools import islice

from .driver import METHODS, AoOptions, ao_optimize
from .model import check_integer, noise_power, sample_scenario

CSV_HEADER = ("axis", "value", "trial", "method", "mse", "rounds", "seconds", "seed")

SWEEP_AXES = {"snr": "snr_db", "n": "N", "k": "K", "trace": "round"}


@dataclass
class ExperimentConfig:
    """One batch experiment: exactly one sweep axis plus fixed parameters.

    timing controls the CSV seconds column: "none" writes zeros so reruns are
    byte-identical, "wall" records wall-clock time. workers = 0 picks the
    machine's CPU count.
    """

    sweep: str = "snr"
    values: tuple = (-10.0, -5.0, 0.0, 5.0, 10.0)
    n: int = 10
    k: int = 10
    snr_db: float = -10.0
    p0: float = 1.0
    alpha_min: float = 0.5
    alpha_max: float = 1.5
    methods: tuple = METHODS
    trials: int = 50
    seed: int = 0
    out: str = ""
    workers: int = 1
    timing: str = "none"
    max_rounds: int = 100
    tol_mse: float = 1e-6

    def __post_init__(self):
        if self.sweep not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.sweep!r}")
        if self.sweep != "trace" and len(self.values) == 0:
            raise ValueError("sweep needs at least one axis value")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"sweep values must be distinct: {self.values}")
        if self.sweep in ("n", "k") and not all(float(v).is_integer() for v in self.values):
            raise ValueError(f"{self.sweep} sweep values must be integers: {self.values}")
        for name in ("n", "k", "trials", "seed", "workers"):
            check_integer(name, getattr(self, name))
        sizes = (self.n, self.k) + (tuple(self.values) if self.sweep in ("n", "k") else ())
        if min(sizes) < 1:
            raise ValueError("antenna and user counts must be at least 1")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.timing not in ("none", "wall"):
            raise ValueError("timing must be 'none' or 'wall'")
        if not self.methods or len(set(self.methods)) != len(self.methods):
            raise ValueError(f"methods must be a non-empty list of distinct names: {self.methods}")
        if self.workers < 0:
            raise ValueError("workers must be nonnegative (0 = one per CPU)")
        for snr_db in (self.snr_db,) + (tuple(self.values) if self.sweep == "snr" else ()):
            noise_power(self.p0, snr_db)
        if not (math.isfinite(self.alpha_min) and math.isfinite(self.alpha_max)
                and 0 < self.alpha_min <= self.alpha_max):
            raise ValueError("need finite gains with 0 < alpha_min <= alpha_max, "
                             f"got {self.alpha_min}, {self.alpha_max}")
        for method in self.methods:
            AoOptions(method, self.max_rounds, self.tol_mse)


def parse_config(path: str) -> ExperimentConfig:
    """Read a flat key=value config file.

    The keys are the fields of ExperimentConfig. A value is read as the type of
    its field's default, a tuple field as a comma list of the type of its
    default's items; the last occurrence of a key wins. A '#' that starts a
    line or follows whitespace starts a comment; any other '#' belongs to the
    value, so 'out = res#1.csv' names the file res#1.csv.
    """
    defaults = {field.name: field.default for field in fields(ExperimentConfig)}
    kwargs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in defaults:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            default = defaults[key]
            try:
                if isinstance(default, tuple):
                    kwargs[key] = tuple(type(default[0])(item.strip())
                                        for item in value.split(",") if item.strip())
                else:
                    kwargs[key] = type(default)(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return ExperimentConfig(**kwargs)


def default_out_path(config: ExperimentConfig) -> str:
    if config.out:
        return config.out
    out_dir = os.environ.get("FLUIDAIRCOMP_OUT", ".")
    name = "trace.csv" if config.sweep == "trace" else f"{config.sweep}_sweep.csv"
    return os.path.join(out_dir, name)


def _scenario_for(config: ExperimentConfig, value: float, trial: int):
    n, k, snr = config.n, config.k, config.snr_db
    if config.sweep == "snr":
        snr = value
    elif config.sweep == "n":
        n = int(value)
    elif config.sweep == "k":
        k = int(value)
    seed = config.seed + trial
    scenario = sample_scenario(n, k, snr, seed, p0=config.p0,
                               alpha_range=(config.alpha_min, config.alpha_max))
    return scenario, seed


def _run_cell(args) -> list[tuple]:
    """One (axis value, trial) work item: all methods on the shared scenario."""
    config, value, trial = args
    scenario, seed = _scenario_for(config, value, trial)
    rows = []
    for method in config.methods:
        options = AoOptions(method=method, max_rounds=config.max_rounds,
                            tol_mse=config.tol_mse)
        report = ao_optimize(scenario, options, seed=seed)
        seconds = report.seconds if config.timing == "wall" else 0.0
        if config.sweep == "trace":
            for t, value_t in enumerate(report.mse_history):
                rows.append(("round", float(t), trial, method, value_t,
                             report.rounds, seconds, seed))
        else:
            rows.append((SWEEP_AXES[config.sweep], value, trial, method,
                         report.state.mse, report.rounds, seconds, seed))
    return rows


def _map_cells(cells: list, workers: int):
    """Yield each cell's rows in cell order, from one pool for the whole sweep
    when more than one worker and more than one cell. The pool has at most
    one worker per cell, since a forked pool starts all its workers at once."""
    if workers > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
            yield from pool.map(_run_cell, cells, chunksize=1)
    else:
        yield from map(_run_cell, cells)


def _format_row(row: tuple) -> list[str]:
    axis, value, trial, method, mse_val, rounds, seconds, seed = row
    return [axis, f"{value:g}", str(trial), method, f"{mse_val:.12g}",
            f"{rounds:g}", f"{seconds:.6f}", str(seed)]


def run_sweep(config: ExperimentConfig, out_path: str) -> None:
    """Execute the configured sweep and write its CSV to out_path, which the
    caller names (the CLI through default_out_path).

    Each axis value's block of per-trial rows (ordered by trial, then method)
    is written and flushed as soon as its trials finish, so a failed run
    leaves the completed blocks on disk. Aggregate rows with trial = -1
    holding the per-(value, method) means over trials follow at the end,
    except in trace mode; each is formed from its value's block as that
    block is written, so only the aggregates outlive their block.
    """
    values = (0.0,) if config.sweep == "trace" else config.values
    workers = config.workers if config.workers > 0 else (os.cpu_count() or 1)

    directory = os.path.dirname(out_path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    aggregates: list[tuple] = []
    cells = [(config, value, trial) for value in values for trial in range(config.trials)]
    with open(out_path, "w", newline="", encoding="utf-8") as fh, \
            closing(_map_cells(cells, workers)) as results:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for value in values:
            block = [row for cell_rows in islice(results, config.trials)
                     for row in cell_rows]
            for row in block:
                writer.writerow(_format_row(row))
            fh.flush()
            if config.sweep == "trace":
                continue
            for method in config.methods:
                group = [row for row in block if row[3] == method]
                n_rows = len(group)
                aggregates.append((SWEEP_AXES[config.sweep], value, -1, method,
                                   sum(r[4] for r in group) / n_rows,
                                   sum(r[5] for r in group) / n_rows,
                                   sum(r[6] for r in group) / n_rows, -1))
        for row in aggregates:
            writer.writerow(_format_row(row))
