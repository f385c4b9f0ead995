#!/usr/bin/env python3
"""Per-cell ledger: run every method on fixed cells and write CELLS.json.

    python scripts/cells.py                       # writes CELLS.json at the root
    python scripts/cells.py --against OLD.json    # also prints the moves vs OLD

The cells, at p0 = 1, are the benchmark's scenarios (trace-k100 seeds 0-2;
snr-sweep-k10 at -10, 0 and 10 dB with seeds 0-2; array-n20 seeds 0-1), the
(40, 200, -10 dB, seed 0) cell, and two N = K = 10 instances: 0 dB with seed
8203 (a stalled pdip call) and 100 dB with seed 0. Per solve the file holds
the final MSE as float hex, the rounds, the position step's iterations per
round, the AO status and six work counters: "steering", the single-point
steering evaluations the solve formed; "projections", the calls of
pgd.project_feasible; "pava", the calls of pgd.pava_nondecreasing;
"newton_steps", the calls of pdip.newton_step; "residuals", the calls of
pdip.residuals; and "qp_steps", the active-set steps of sca.solve_qp, summed
from the iterations of its reports. It is deterministic, so its git diff
names the cells a change moved and the work it cut. It is a report, not a
gate.
"""

import argparse
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from fluidaircomp import apv_objective, model, pdip, pgd, sca
from fluidaircomp.driver import METHODS, AoOptions, ao_optimize
from fluidaircomp.model import sample_scenario

ROOT = Path(__file__).resolve().parent.parent


def _cells():
    """(n, k, snr_db, seed, max_rounds, tol_mse) of every cell, in file order."""
    cells = [(10, 100, -10.0, seed, 100, 1e-6) for seed in range(3)]
    cells += [(10, 10, snr, seed, 60, 1e-5)
              for snr in (-10.0, 0.0, 10.0) for seed in range(3)]
    cells += [(20, 40, -10.0, seed, 60, 1e-5) for seed in range(2)]
    cells += [(40, 200, -10.0, 0, 100, 1e-6),
              (10, 10, 0.0, 8203, 60, 1e-5),
              (10, 10, 100.0, 0, 100, 1e-6)]
    return {f"N{n} K{k} {snr:+g}dB s{seed}": (n, k, snr, seed, rounds, tol)
            for n, k, snr, seed, rounds, tol in cells}


CELLS = _cells()


# Each work counter: the modules whose attribute is rebound, the attribute,
# which calls count (None: every call), and what a counted call adds, read
# from its result (None: one). The library reads steering from model (in
# channel_matrix) and from apv_objective, so both are rebound.
COUNTERS = {
    "steering": ((model, apv_objective), "steering",
                 lambda x, *_, **__: np.ndim(x) == 1, None),
    "projections": ((pgd,), "project_feasible", None, None),
    "pava": ((pgd,), "pava_nondecreasing", None, None),
    "newton_steps": ((pdip,), "newton_step", None, None),
    "residuals": ((pdip,), "residuals", None, None),
    "qp_steps": ((sca,), "solve_qp", None, lambda report: report.iterations),
}


def _counting(function, counts, name, counts_call, weight):
    """function, adding to counts[name] per call that counts_call accepts:
    one before the call, or weight(result) after it."""
    def counted(*args, **kwargs):
        counted_call = counts_call is None or counts_call(*args, **kwargs)
        if counted_call and weight is None:
            counts[name] += 1
        result = function(*args, **kwargs)
        if counted_call and weight is not None:
            counts[name] += weight(result)
        return result
    return counted


@contextmanager
def work_counters():
    """Count the calls of each COUNTERS entry made inside the block, by
    rebinding module attributes as bench/spans.py rebinds the functions it
    traces, and restore them afterwards. Yields the dict of counts."""
    counts = dict.fromkeys(COUNTERS, 0)
    restore = []
    for name, (modules, attribute, counts_call, weight) in COUNTERS.items():
        counted = _counting(getattr(modules[0], attribute), counts, name, counts_call,
                            weight)
        for module in modules:
            restore.append((module, attribute, getattr(module, attribute)))
            setattr(module, attribute, counted)
    try:
        yield counts
    finally:
        for module, attribute, function in restore:
            setattr(module, attribute, function)


def run_cell(n, k, snr_db, seed, max_rounds, tol_mse) -> dict:
    scenario = sample_scenario(n, k, snr_db, seed)
    solves = {}
    for method in METHODS:
        with work_counters() as counts:
            report = ao_optimize(scenario, AoOptions(method=method, max_rounds=max_rounds,
                                                     tol_mse=tol_mse))
        solves[method] = {"mse": report.state.mse.hex(), "rounds": report.rounds,
                          "status": report.status,
                          "inner_iterations": report.inner_iterations, **counts}
    return {"cell": {"n": n, "k": k, "snr_db": snr_db, "seed": seed,
                     "max_rounds": max_rounds, "tol_mse": tol_mse},
            "solves": solves}


def dump(ledger: dict) -> str:
    """JSON with one line per cell's settings and per solve, so that a diff
    shows one line per moved solve."""
    lines = []
    for name, entry in ledger.items():
        solves = [f'      "{method}": {json.dumps(solve)}'
                  for method, solve in entry["solves"].items()]
        lines.append(f'  "{name}": {{\n    "cell": {json.dumps(entry["cell"])},\n'
                     '    "solves": {\n' + ",\n".join(solves) + "\n    }\n  }")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def compare(old: dict, new: dict) -> list[str]:
    """Report lines: each solve's relative MSE move and whether its record is
    unchanged (over the keys both ledgers hold, so an older ledger without a
    work counter still compares), then the worst move per method, then every
    change of rounds or status and every cell found in one ledger only."""
    out = [f"{'cell':22s} {'method':6s} {'old mse':>12s} {'new mse':>12s} "
           f"{'rel move':>10s}  record"]
    worst = {}
    changes = []
    for name in new:
        if name not in old:
            changes.append(f"{name}: only in the new ledger")
            continue
        for method, now in new[name]["solves"].items():
            was = old[name]["solves"].get(method)
            if was is None:
                changes.append(f"{name} {method}: not in the old ledger")
                continue
            a, b = float.fromhex(was["mse"]), float.fromhex(now["mse"])
            move = (b - a) / a
            same = all(now[key] == was[key] for key in now.keys() & was.keys())
            out.append(f"{name:22s} {method:6s} {a:12.6g} {b:12.6g} {move:+10.2e}  "
                       f"{'same' if same else 'changed'}")
            if method not in worst or abs(move) > abs(worst[method][0]):
                worst[method] = (move, name)
            for key in ("rounds", "status"):
                if now[key] != was[key]:
                    changes.append(f"{name} {method}: {key} {was[key]} -> {now[key]}")
    out.append("worst move per method:")
    out += [f"  {method:6s} {move:+.2e}  {name}" for method, (move, name) in worst.items()]
    changes += [f"{name}: only in the old ledger" for name in old if name not in new]
    out.append("rounds or status changed:" + ("" if changes else " none"))
    out += ["  " + line for line in changes]
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "CELLS.json"))
    parser.add_argument("--against", metavar="FILE",
                        help="a ledger to compare the new one with")
    parser.add_argument("--cell", action="append", choices=sorted(CELLS),
                        help="run only this cell (repeatable)")
    args = parser.parse_args()

    names = args.cell or list(CELLS)
    ledger = {name: run_cell(*CELLS[name]) for name in names}
    Path(args.out).write_text(dump(ledger))
    if args.against:
        old = json.loads(Path(args.against).read_text())
        print("\n".join(compare(old, ledger)))


if __name__ == "__main__":
    main()
