#!/usr/bin/env python3
"""Benchmark of the alternating optimizer (AO) of m, b and the antenna positions.

    python3 bench/run.py --workload trace-k100 --seed 1 --seconds 30 --trace 0

Runs one workload as a closed loop of whole passes (one ``run_sweep`` call
each) for about ``--seconds`` seconds, checks every output, and prints as its
last line one JSON object: correct, attempted and failed solves, and the
metrics. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same passes with span tracing on and reports the per-layer metrics. See
bench/README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

METHODS = ("pdip", "sca", "pgd", "fpa")
TIMED_METHODS = ("pdip", "sca", "pgd")
SETUP_REPEATS = 5
CSV_HEADER = ["axis", "value", "trial", "method", "mse", "rounds", "seconds", "seed"]

# Each workload is one ExperimentConfig; a pass runs it once. The scenario
# seeds are fixed cells: independent draws make one solve's cost vary 2-3x,
# and only a few solves of each method fit in a run, so medians would follow
# the draw, not the code. --seed scales the power budget p0 instead (the
# noise power follows, sigma2 = p0 / SNR). That changes every input number but
# not the problem, since w_k = alpha_k conj(b_k) m is invariant, so rounds,
# iterations and MSE repeat from seed to seed.
WORKLOADS = {
    # the paper's convergence trace (configs/trace.cfg) on three instances
    "trace-k100": dict(sweep="trace", values=(), n=10, k=100, snr_db=-10.0,
                       trials=3, seed=0, max_rounds=100, tol_mse=1e-6, workers=1),
    # the SNR figure (configs/snr_sweep.cfg) cut to three points and trials
    "snr-sweep-k10": dict(sweep="snr", values=(-10.0, 0.0, 10.0), n=10, k=10,
                          trials=3, seed=0, max_rounds=60, tol_mse=1e-5, workers=2),
    # a larger array: N^2 tensor, (2N+1)-square KKT, longer projection chain
    "array-n20": dict(sweep="n", values=(20.0,), k=40, snr_db=-10.0, trials=2,
                      seed=0, max_rounds=60, tol_mse=1e-5, workers=1),
}


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import the library, build the scenarios, exit")
    return parser.parse_args(argv)


def _import_library():
    if not (SRC / "fluidaircomp" / "__init__.py").is_file():
        raise SystemExit(f"fluidaircomp sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import fluidaircomp
    return fluidaircomp


def workload_config(fa, name: str, p0: float):
    spec = dict(WORKLOADS[name])
    spec["workers"] = min(spec["workers"], os.cpu_count() or 1)
    return fa.ExperimentConfig(methods=METHODS, p0=p0, timing="wall", **spec)


def build_scenarios(fa, config) -> list:
    """The scenarios of one pass, drawn as run_sweep draws them."""
    values = (0.0,) if config.sweep == "trace" else config.values
    scenarios = []
    for value in values:
        n, k, snr_db = config.n, config.k, config.snr_db
        if config.sweep == "n":
            n = int(value)
        elif config.sweep == "k":
            k = int(value)
        elif config.sweep == "snr":
            snr_db = value
        scenarios += [fa.sample_scenario(n, k, snr_db, config.seed + trial, p0=config.p0,
                                         alpha_range=(config.alpha_min, config.alpha_max))
                      for trial in range(config.trials)]
    return scenarios


def setup_probe(workload: str) -> None:
    fa = _import_library()
    build_scenarios(fa, workload_config(fa, workload, 1.0))


def measure_setup(workload: str) -> float:
    """Median wall time of a fresh interpreter importing the library and
    building one pass's scenarios."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", workload, "--setup-probe"],
                       check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def p0_for(seed: int, pass_index: int) -> float:
    """The power budget of one pass: 2^u with u uniform on [-1, 1]."""
    rng = np.random.default_rng([seed, pass_index])
    return float(2.0 ** rng.uniform(-1.0, 1.0))


def _axis_value(config, record) -> float:
    if config.sweep == "trace":
        return 0.0
    if config.sweep == "n":
        return float(record["n"])
    if config.sweep == "k":
        return float(record["k"])
    for value in config.values:  # same expression as sample_scenario
        if config.p0 / 10.0 ** (value / 10.0) == record["sigma2"]:
            return value
    raise ValueError(f"no SNR of the sweep gives sigma2 = {record['sigma2']!r}")


def _row_key(row) -> tuple:
    return row["value"], row["trial"], row["method"]


def check_pass_csv(config, rows, records) -> list[str]:
    """The CSV holds exactly one result per solve and agrees with each solve."""
    problems = []
    per_trial = [r for r in rows if r["trial"] != "-1"]
    by_solve: dict[tuple, list[dict]] = {}
    for row in per_trial:
        key = (row["trial"], row["method"]) if config.sweep == "trace" else _row_key(row)
        by_solve.setdefault(key, []).append(row)
    expected = len(records)
    if len(by_solve) != expected:
        problems.append(f"CSV has {len(by_solve)} solves, {expected} were made")
    for record in records:
        if record["error"]:
            continue
        trial = str(record["seed"] - config.seed)
        if config.sweep == "trace":
            got = by_solve.get((trial, record["method"]), [])
            values = [float(r["mse"]) for r in got]
            want = record["history"]
        else:
            key = (f"{_axis_value(config, record):g}", trial, record["method"])
            got = by_solve.get(key, [])
            values = [float(r["mse"]) for r in got]
            want = [record["mse"]]
        if len(values) != len(want) or any(
                abs(a - b) > 1e-11 * abs(b) for a, b in zip(values, want)):
            problems.append(f"CSV rows of seed {record['seed']} {record['method']} "
                            f"do not match the solve")
        elif any(int(float(r["rounds"])) != record["rounds"] for r in got):
            problems.append(f"CSV rounds of seed {record['seed']} {record['method']} "
                            f"differ from the solve")
    if config.sweep != "trace":
        problems += checks.check_aggregates(rows)
    return problems


def check_worker_independence(fa, config, rows, out_dir: Path) -> list[str]:
    """Rerun the first trial of every axis value in one process; every column
    but seconds must equal the pooled pass's rows."""
    serial = replace(config, trials=1, workers=1)
    path = out_dir / "serial.csv"
    fa.experiments.run_sweep(serial, str(path))
    _, serial_rows = checks.read_csv(path)
    strip = lambda r: tuple(v for k, v in r.items() if k != "seconds")
    want = sorted(strip(r) for r in serial_rows if r["trial"] == "0")
    got = sorted(strip(r) for r in rows if r["trial"] == "0")
    return [] if want == got else ["CSV rows depend on the worker count"]


@dataclass
class PassResult:
    """One run_sweep call: its config, wall time, CSV rows and solve records;
    error is empty unless the call raised or wrote a malformed CSV."""

    config: object
    wall: float
    rows: list
    records: list
    error: str


def run_pass(fa, capture, workload, seed, index, out_dir) -> PassResult:
    path = out_dir / f"pass{index}.csv"
    config = workload_config(fa, workload, p0_for(seed, index))
    error = ""
    start = time.perf_counter()
    try:
        fa.experiments.run_sweep(config, str(path))
    except Exception as exc:  # a failed pass is counted, not fatal
        error = repr(exc)
        print(f"pass {index} failed: {error}", file=sys.stderr)
    wall = time.perf_counter() - start
    records = capture.drain()
    rows = []
    if not error:
        header, rows = checks.read_csv(path)
        if header != CSV_HEADER:
            error = f"unexpected CSV header {header}"
    return PassResult(config, wall, rows, records, error)


def run_passes(fa, capture, workload, seed, seconds, out_dir):
    """Whole passes until the next one would end after ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(fa, capture, workload, seed, len(passes), out_dir))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, elapsed


def evaluate(passes, solves_per_pass):
    """Check every pass; returns (attempted, failed, problems, good records)."""
    attempted = failed = 0
    problems, good = [], []
    for result in passes:
        attempted += solves_per_pass
        if result.error:
            failed += solves_per_pass
            continue
        if len(result.records) != solves_per_pass:
            problems.append(f"{len(result.records)} solves recorded, "
                            f"{solves_per_pass} expected")
        failed += max(solves_per_pass - len(result.records), 0)
        for record in result.records:
            found = [] if record["error"] else checks.check_solve(record)
            problems += [f"seed {record['seed']} {record['method']}: {p}" for p in found]
            if checks.solve_failed(record, found):
                failed += 1
            else:
                good.append(record)
        problems += check_pass_csv(result.config, result.rows, result.records)
    return attempted, failed, problems, good


def solve_seconds(passes) -> dict[str, list[float]]:
    """Per method, the CSV seconds of every solve (one per trace solve)."""
    times: dict[str, list[float]] = {m: [] for m in METHODS}
    for result in passes:
        seen = set()
        for row in result.rows:
            key = _row_key(row) if result.config.sweep != "trace" else (row["trial"], row["method"])
            if row["trial"] != "-1" and key not in seen:
                seen.add(key)
                times[row["method"]].append(float(row["seconds"]))
    return times


def end_to_end_metrics(passes, good, wall, workers) -> dict:
    """All end-to-end metrics but setup_s. Call before starting any other
    child process: the peak RSS of children is that of the largest one."""
    times = solve_seconds(passes)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {"solves_per_s": (len(good) / wall, "1/s")}
    # the cells are fixed, so the median of a run's two or three in-process
    # solves would be one solve's time; the mean averages over all of them
    for method in TIMED_METHODS:
        metrics[f"{method}_solve_s"] = (statistics.fmean(times[method]), "s")
    for method in METHODS:
        values = [r["mse"] for r in good if r["method"] == method]
        metrics[f"{method}_mse"] = (statistics.fmean(values), "1")
    # pool workers are gone by now; each peaked at about the largest one's RSS
    pooled = workers if workers > 1 else 0
    metrics["peak_rss_mb"] = ((self_kb + pooled * child_kb) / 1024.0, "MB")
    return metrics


def layer_metrics(summary, passes, tracer, overhead, workers) -> dict:
    def get(name, key):
        return summary.get(name, {}).get(key, 0.0)

    metrics = {}
    for name, keys in (("model.mse", ("calls", "s")),
                       ("closed_form.update_m", ("calls", "s")),
                       ("closed_form.update_b", ("calls", "s")),
                       ("apv_objective.effective_weights", ("s",)),
                       ("apv_objective.value", ("calls", "s")),
                       ("apv_objective.gradient", ("calls", "s")),
                       ("apv_objective.hessian", ("calls", "s")),
                       ("pdip.solve_pdip", ("calls", "self_s")),
                       ("pdip.newton_step", ("calls", "self_s")),
                       ("pdip.residuals", ("calls",)),
                       ("sca.build_surrogate", ("calls", "s")),
                       ("sca.solve_sca", ("self_s",)),
                       ("pgd.project_feasible", ("calls", "s")),
                       ("pgd.solve_pgd", ("self_s",)),
                       ("experiments.run_sweep", ("s",))):
        for key in keys:
            metrics[f"{name}.{key}"] = (get(name, key), "count" if key == "calls" else "s")
    pdip_iters = get("pdip.solve_pdip", "iterations")
    pgd_iters = get("pgd.solve_pgd", "iterations")
    metrics["pdip.iterations"] = (pdip_iters, "count")
    metrics["pdip.residuals_per_iteration"] = (
        get("pdip.residuals", "calls") / max(pdip_iters, 1.0), "ratio")
    metrics["pdip.not_converged"] = (
        get("pdip.solve_pdip", "calls") - get("pdip.solve_pdip", "converged"), "count")
    metrics["pgd.iterations"] = (pgd_iters, "count")
    metrics["pgd.projections_per_iteration"] = (
        get("pgd.project_feasible", "calls") / max(pgd_iters, 1.0), "ratio")
    for method in METHODS:
        name = f"driver.{method}"
        metrics[f"{name}.s"] = (get(name, "s"), "s")
        metrics[f"{name}.self_s"] = (get(name, "self_s"), "s")
        metrics[f"{name}.rounds"] = (get(name, "rounds"), "count")
        metrics[f"{name}.inner_iterations"] = (get(name, "inner_iterations"), "count")
    metrics["experiments.pools_started"] = (float(tracer.pools_started), "count")
    cell_seconds = sum(sum(t) for t in solve_seconds(passes).values())
    metrics["experiments.pool_idle_s"] = (
        workers * sum(p.wall for p in passes) - cell_seconds, "s")
    metrics["tracing.overhead"] = (overhead, "ratio")
    return metrics


def untraced_layers(summary) -> list[str]:
    """Traced functions that recorded no call; every workload runs them all."""
    names = [f"{m}.{f}" for m, f in spans.TRACED_FUNCTIONS]
    names += [f"{m}.{f}" for m, _, fs in spans.TRACED_METHODS for f in fs]
    names += [f"driver.{m}" for m in METHODS]
    return [n for n in names if summary.get(n, {}).get("calls", 0) == 0]


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    fa = _import_library()
    out_dir = OUT_ROOT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    base = workload_config(fa, args.workload, 1.0)
    solves_per_pass = len(build_scenarios(fa, base)) * len(METHODS)
    workers = base.workers
    capture = spans.SolveCapture(out_dir)
    capture.install()
    problems = []
    if args.trace:
        reference = run_pass(fa, capture, args.workload, args.seed, 0, out_dir)
        tracer = spans.Tracer(out_dir)
        tracer.install()
        try:
            passes, wall = run_passes(fa, capture, args.workload, args.seed,
                                      args.seconds, out_dir)
        finally:
            tracer.uninstall()
        capture.uninstall()
        summary = spans.summarize(tracer.collect())
        overhead = passes[0].wall / reference.wall - 1.0
        missing = untraced_layers(summary)
        if workers > 1 and tracer.pools_started == 0:
            missing.append("experiments.ProcessPoolExecutor")
        problems += [f"layer {name} recorded no calls" for name in missing]
        attempted, failed, found, _ = evaluate([reference] + passes, solves_per_pass)
        metrics = layer_metrics(summary, passes, tracer, overhead, workers)
    else:
        passes, wall = run_passes(fa, capture, args.workload, args.seed,
                                  args.seconds, out_dir)
        capture.uninstall()
        attempted, failed, found, good = evaluate(passes, solves_per_pass)
        metrics = end_to_end_metrics(passes, good, wall, workers)
        metrics = {"setup_s": (measure_setup(args.workload), "s"), **metrics}
        if workers > 1 and not passes[0].error:
            found += check_worker_independence(fa, passes[0].config, passes[0].rows, out_dir)
    problems += found
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
