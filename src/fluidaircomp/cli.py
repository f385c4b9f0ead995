"""Command-line interface: batch sweeps and single-instance traces."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from .driver import METHODS
from .experiments import ExperimentConfig, default_out_path, parse_config, run_sweep


def _build_parser() -> argparse.ArgumentParser:
    """The run and trace flags store under ExperimentConfig field names."""
    parser = argparse.ArgumentParser(
        prog="fluidaircomp",
        description="AirComp MSE minimization with a movable receive array",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a sweep described by a config file")
    run.add_argument("--config", required=True, help="key=value config file")
    run.add_argument("--out", help="output CSV path (overrides config)")
    run.add_argument("--seed", type=int, help="base seed (overrides config)")
    run.add_argument("--method", dest="methods", action="append", choices=METHODS,
                     help="restrict to this method (repeatable)")
    run.add_argument("--trials", type=int, help="trial count (overrides config)")
    run.add_argument("--workers", type=int, help="process count (overrides config)")

    trace = sub.add_parser("trace", help="per-round MSE trace of one instance")
    trace.add_argument("--N", dest="n", type=int, help="antenna count")
    trace.add_argument("--K", dest="k", type=int, help="user count")
    trace.add_argument("--snr-db", type=float)
    trace.add_argument("--method", dest="methods", action="append", choices=METHODS,
                       help="method to trace (repeatable; default all)")
    trace.add_argument("--rounds", dest="max_rounds", metavar="ROUNDS", type=int)
    trace.add_argument("--seed", type=int)
    trace.add_argument("--out", help="output CSV path")
    return parser


def cli_main(argv=None) -> int:
    """Entry point; returns 0 on success, 1 on runtime failure, 2 on usage errors."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            base = parse_config(args.config)
        else:
            base = ExperimentConfig(sweep="trace", values=(), k=100, trials=1)
        flags = {field.name: getattr(args, field.name) for field in fields(ExperimentConfig)
                 if getattr(args, field.name, None) is not None}
        if "methods" in flags:
            flags["methods"] = tuple(flags["methods"])
        config = replace(base, **flags)
        path = default_out_path(config)
        run_sweep(config, path)
        print(f"wrote {path}")
        return 0
    except Exception as exc:  # argparse handles usage; anything else is runtime
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())
