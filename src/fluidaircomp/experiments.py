"""Monte Carlo sweeps over SNR, array size, and user count, plus single-run traces.

All methods in a given (axis value, trial) cell see the byte-identical
scenario (seed = base seed + trial), so comparisons are paired. Cells are
independent work items and may run in a process pool; within each axis value
the rows are gathered and sorted before writing, so the CSV does not depend
on the worker count.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .driver import METHODS, AoOptions, ao_optimize
from .model import sample_scenario

CSV_HEADER = ("axis", "value", "trial", "method", "mse", "rounds", "seconds", "seed")

SWEEP_AXES = {"snr": "snr_db", "n": "N", "k": "K", "trace": "round"}

_CONFIG_KEYS = {
    "sweep", "values", "n", "k", "snr_db", "p0", "alpha_min", "alpha_max",
    "methods", "trials", "seed", "out", "workers", "timing", "max_rounds",
    "tol_mse",
}


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
        if self.sweep in ("n", "k") and not all(float(v).is_integer() for v in self.values):
            raise ValueError(f"{self.sweep} sweep values must be integers: {self.values}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.timing not in ("none", "wall"):
            raise ValueError("timing must be 'none' or 'wall'")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}")


def parse_config(path: str) -> ExperimentConfig:
    """Read a flat key=value config file ('#' starts a comment)."""
    raw: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            raw[key] = value
    kwargs: dict = {}
    if "sweep" in raw:
        kwargs["sweep"] = raw["sweep"]
    if "values" in raw:
        kwargs["values"] = tuple(float(v) for v in raw["values"].split(",") if v.strip())
    if "methods" in raw:
        kwargs["methods"] = tuple(m.strip() for m in raw["methods"].split(",") if m.strip())
    for key, cast in (("n", int), ("k", int), ("trials", int), ("seed", int),
                      ("workers", int), ("max_rounds", int), ("snr_db", float),
                      ("p0", float), ("alpha_min", float), ("alpha_max", float),
                      ("tol_mse", float)):
        if key in raw:
            kwargs[key] = cast(raw[key])
    for key in ("out", "timing"):
        if key in raw:
            kwargs[key] = raw[key]
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


def _format_row(row: tuple) -> list[str]:
    axis, value, trial, method, mse_val, rounds, seconds, seed = row
    return [axis, f"{value:g}", str(trial), method, f"{mse_val:.12g}",
            f"{rounds:g}", f"{seconds:.6f}", str(seed)]


def run_sweep(config: ExperimentConfig, out_path: str | None = None) -> list[tuple]:
    """Execute the configured sweep, write the CSV, and return the raw rows.

    Each axis value's block of per-trial rows (ordered by trial, then method)
    is written and flushed as soon as its trials finish, so a failed run
    leaves the completed blocks on disk. Aggregate rows with trial = -1
    holding the per-(value, method) means over trials follow at the end,
    except in trace mode.
    """
    path = out_path or default_out_path(config)
    values = (0.0,) if config.sweep == "trace" else config.values
    workers = config.workers if config.workers > 0 else (os.cpu_count() or 1)
    method_order = {m: i for i, m in enumerate(config.methods)}

    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    rows: list[tuple] = []
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for value in values:
            cells = [(config, value, trial) for trial in range(config.trials)]
            if workers > 1 and len(cells) > 1:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(_run_cell, cells, chunksize=1))
            else:
                results = [_run_cell(cell) for cell in cells]
            block = [row for cell_rows in results for row in cell_rows]
            block.sort(key=lambda r: (r[2], method_order[r[3]], r[1]))
            for row in block:
                writer.writerow(_format_row(row))
            fh.flush()
            rows.extend(block)

        if config.sweep != "trace":
            per_group: dict[tuple, list[tuple]] = {}
            for row in rows:
                per_group.setdefault((row[1], row[3]), []).append(row)
            for value in values:
                for method in config.methods:
                    group = per_group[(value, method)]
                    n_rows = len(group)
                    aggregate = (SWEEP_AXES[config.sweep], value, -1, method,
                                 sum(r[4] for r in group) / n_rows,
                                 sum(r[5] for r in group) / n_rows,
                                 sum(r[6] for r in group) / n_rows, -1)
                    writer.writerow(_format_row(aggregate))
                    rows.append(aggregate)
    return rows


def trace_config(n: int, k: int, snr_db: float, methods: tuple = METHODS,
                 trials: int = 1, seed: int = 0, **overrides) -> ExperimentConfig:
    """Convenience constructor for a per-round convergence trace."""
    return replace(
        ExperimentConfig(sweep="trace", values=(), n=n, k=k, snr_db=snr_db,
                         methods=methods, trials=trials, seed=seed),
        **overrides,
    )
