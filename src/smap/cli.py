"""Command-line entry point.

Exit codes: 0 success, 2 configuration problems (a config whose arrays do
not fit in memory among them), 3 verification failures, 4 numeric errors
from the solver or analysis modules (the error name is printed on stderr).
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, SmapError, ValidationFailure
from .harness.config import load_config
from .harness.runner import COMMANDS, run
from .spacetime import thread_budget


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smap",
        description="Pseudospectral simulator and verification harness for the "
        "Schrodinger map flow on the torus.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="key = value config file (defaults used if omitted)")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument(
        "--allow-subcritical",
        action="store_true",
        help="permit sigma0 at or below (d+1)/2; outputs are labeled exploratory",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {"out_dir": args.out, "seed": args.seed}
    if args.allow_subcritical:
        overrides["allow_subcritical"] = True
    try:
        thread_budget()  # a bad SMAP_THREADS ends the command before any work
        config = load_config(args.config, **overrides)
        return run(args.command, config)
    except ConfigError as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an array the config asks for does not fit
        print(f"ConfigError: not enough memory for this config: {exc}", file=sys.stderr)
        return 2
    except ValidationFailure as exc:
        print(f"ValidationFailure: {exc}", file=sys.stderr)
        return 3
    except SmapError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
