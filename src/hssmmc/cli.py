"""Command-line front end.

    hssmmc <scenario> --config <file-or-preset> [--out DIR] [--no-timestamp]
           [--h N] [--m X] [--sweep-key KEY] [--sweep-values V1,V2,...]

Flag overrides beat configuration values; the HSSMMC_OUT environment
variable overrides the default output directory when neither --out nor the
configuration specify one.

Exit codes: 0 all thresholds met, 1 threshold failure, 2 configuration
error, 3 numerical failure (any other ``HssError``). The simulations exit 0
once the run completes, whatever their report's lines read.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import SweepConfig, apply_sweep_value, load_config
from .errors import HssError, SchemaViolationError
from .pipelines import SCENARIO_RUNNERS

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# Scenarios that exit 0 once the run completes, whatever their report reads.
RUN_SCENARIOS = ("simulate-open", "simulate-closed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hssmmc",
        description="Harmonic state-space modeling toolkit for the three-phase MMC",
    )
    parser.add_argument("scenario", choices=SCENARIO_RUNNERS)
    parser.add_argument("--config", required=True, help="configuration file or bundled preset name")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--no-timestamp", action="store_true", help="omit timestamp header lines")
    parser.add_argument("--h", type=int, dest="h", help="override truncation order")
    parser.add_argument("--m", type=float, dest="m", help="override modulation index")
    parser.add_argument("--sweep-key", help="override swept key")
    parser.add_argument("--sweep-values", help="override swept values (comma separated)")
    return parser


def _resolve_output_dir(args, cfg) -> Path:
    if args.out:
        return Path(args.out)
    if cfg.output_dir:
        return Path(cfg.output_dir)
    return Path(os.environ.get("HSSMMC_OUT", "hssmmc_out"))


def _apply_overrides(cfg, args):
    if args.m is not None:
        cfg = apply_sweep_value(cfg, "m", args.m)
    if args.h is not None:
        cfg = apply_sweep_value(cfg, "h", args.h)
    if args.sweep_key or args.sweep_values:
        base = cfg.sweep or SweepConfig(key="h", values=())
        key = args.sweep_key or base.key
        values = base.values
        if args.sweep_values is not None:
            try:
                values = tuple(float(v) for v in args.sweep_values.split(",") if v.strip())
            except ValueError:
                raise SchemaViolationError(
                    f"--sweep-values {args.sweep_values!r} is not a comma-separated number list"
                ) from None
        cfg = replace(cfg, sweep=replace(base, key=key, values=values))
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        out = _resolve_output_dir(args, cfg)
        out.mkdir(parents=True, exist_ok=True)
        runner = SCENARIO_RUNNERS[args.scenario]
        code = runner(cfg, out, timestamp=not args.no_timestamp)
    except SchemaViolationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HssError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if code == EXIT_OK and args.scenario in RUN_SCENARIOS:
        print(f"{args.scenario}: done, see {out / 'report.txt'}")
    elif code == EXIT_OK:
        print(f"{args.scenario}: all checks passed ({out})")
    else:
        print(f"{args.scenario}: threshold failure, see {out / 'report.txt'}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
