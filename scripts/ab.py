#!/usr/bin/env python3
"""Time two source trees against each other in one process, cell by cell.

    PYTHONPATH=src python scripts/ab.py PARENT_TREE CHANGE_TREE --method pdip
    PYTHONPATH=src python scripts/ab.py A B --method sca --reps 3 --cell "N10 K100 -10dB s0"
    PYTHONPATH=src python scripts/ab.py PARENT_TREE CHANGE_TREE --method all --reps 1

Each tree is a checkout root that holds src/fluidaircomp, for example a copy
of a commit made with `git archive`. Both are imported side by side under
their own package names. On every cell of scripts/cells.py (or each --cell),
one ao_optimize call per tree and repetition is timed in CPU seconds, the
tree that goes first alternating between repetitions, so both see about the
same load. Per cell the script prints the median CPU time of each tree, the
median over repetitions of the change/parent time ratio, and whether the two
trees' results are identical: MSE history, positions, inner iterations and
status, bit for bit. --method all runs the four methods in turn, prints one
block per method headed "method M" and closed by "M identical: yes|no", and
ends with whether all of them are identical.
"""

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

from cells import CELLS
from fluidaircomp.driver import METHODS


def load_tree(root: Path, name: str):
    """The fluidaircomp package under root/src, imported as the package name."""
    package = Path(root).resolve() / "src" / "fluidaircomp"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no fluidaircomp package under {package}")
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def timed_solve(lib, cell, method):
    """(CPU seconds, result record) of one ao_optimize call on the cell."""
    n, k, snr_db, seed, max_rounds, tol_mse = cell
    scenario = lib.sample_scenario(n, k, snr_db, seed)
    options = lib.AoOptions(method=method, max_rounds=max_rounds, tol_mse=tol_mse)
    start = time.process_time()
    report = lib.ao_optimize(scenario, options)
    seconds = time.process_time() - start
    record = (tuple(value.hex() for value in report.mse_history),
              report.state.x.tobytes(), tuple(report.inner_iterations), report.status)
    return seconds, record


def compare_cell(libs, cell, method, reps):
    """(median parent s, median change s, median ratio, identical) on one cell."""
    times = ([], [])
    records = [set(), set()]
    for rep in range(reps):
        for side in ((0, 1) if rep % 2 == 0 else (1, 0)):
            seconds, record = timed_solve(libs[side], cell, method)
            times[side].append(seconds)
            records[side].add(record)
    ratios = [change / parent for parent, change in zip(*times)]
    identical = records[0] == records[1] and len(records[0]) == 1
    return (statistics.median(times[0]), statistics.median(times[1]),
            statistics.median(ratios), identical)


def compare_method(libs, method, names, reps) -> bool:
    """Print the table of one method over the named cells; True if every
    cell's results are identical."""
    print(f"{'cell':22s} {'parent s':>9s} {'change s':>9s} {'ratio':>7s}  identical")
    all_identical = True
    for name in names:
        parent_s, change_s, ratio, identical = compare_cell(libs, CELLS[name], method, reps)
        all_identical &= identical
        print(f"{name:22s} {parent_s:9.4f} {change_s:9.4f} {ratio:7.3f}  "
              f"{'yes' if identical else 'no'}")
    return all_identical


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout root of the parent tree")
    parser.add_argument("change", type=Path, help="checkout root of the changed tree")
    parser.add_argument("--method", required=True, choices=METHODS + ("all",))
    parser.add_argument("--reps", type=int, default=9,
                        help="timed calls per tree and cell (default 9)")
    parser.add_argument("--cell", action="append", choices=sorted(CELLS),
                        help="run only this cell (repeatable)")
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    libs = (load_tree(args.parent, "ab_parent"), load_tree(args.change, "ab_change"))
    names = args.cell or list(CELLS)
    if args.method == "all":
        all_identical = True
        for method in METHODS:
            print(f"method {method}")
            identical = compare_method(libs, method, names, args.reps)
            print(f"{method} identical: {'yes' if identical else 'no'}")
            all_identical &= identical
    else:
        all_identical = compare_method(libs, args.method, names, args.reps)
    print(f"all identical: {'yes' if all_identical else 'no'}")


if __name__ == "__main__":
    main()
