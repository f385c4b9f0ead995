#!/usr/bin/env python3
"""Print the means and margins of the trend criteria 8a-8d.

    PYTHONPATH=src python scripts/margins.py             # all four, about 30 s on 2 cores
    PYTHONPATH=src python scripts/margins.py --criterion 8a --criterion 8c

Each criterion runs the trials of its test in tests/test_acceptance.py, with
the same seeds and settings, through the same function of tests/trends.py,
which solves them through the library's sweep runner with RuntimeWarnings as
errors. A margin is positive while the test's assertion holds.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from trends import CRITERIA  # noqa: E402


def report_lines(name: str, result: dict) -> list[str]:
    """The criterion's means (or per-trial flatten rounds) and its margins."""
    lines = [f"criterion {name}: {CRITERIA[name].__doc__.split(': ', 1)[1]}"]
    for key, value in result.items():
        if key == "margins":
            continue
        if isinstance(value, dict):
            for method, entry in value.items():
                lines.append(f"  {key} {method}: {_fmt(entry)}")
        elif key.startswith("t_"):
            lines.append(f"  {key}: mean {sum(value) / len(value):.6g}, max {max(value)}")
        else:
            lines.append(f"  {key}: {_fmt(value)}")
    lines.append("  margins:")
    lines += [f"    {label}: {value:.6g}" for label, value in result["margins"].items()]
    return lines


def _fmt(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(f"{v:.8g}" for v in value) + "]"
    return f"{value:.8g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--criterion", action="append", choices=sorted(CRITERIA),
                        help="run only this criterion (repeatable)")
    args = parser.parse_args()
    for name in args.criterion or list(CRITERIA):
        print("\n".join(report_lines(name, CRITERIA[name]())), flush=True)


if __name__ == "__main__":
    main()
