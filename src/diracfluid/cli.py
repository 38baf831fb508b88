"""Command line interface.

Exit codes: 0 success, 1 configuration/validation problem (or a failing
check), 2 numerical instability detected, 3 snapshot/file I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from .checks import CHECK_NAMES, run_checks
from .errors import ConfigError, NumericalInstabilityError, SnapshotIOError
from .runner import run
from .scenarios import RECIPE_NAMES, RECIPE_SUMMARIES, load_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_UNSTABLE = 2
EXIT_IO = 3


def _cmd_run(args) -> int:
    result = run(load_scenario(args.config, args.override), args.outdir)
    print(f"{result.run_dir}: {len(result.manifest['outputs'])} outputs, "
          f"{result.manifest['n_steps']} steps")
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.list:
        for name in CHECK_NAMES:
            print(name)
        return EXIT_OK
    results = run_checks(args.only or None)
    for result in results:
        print(result.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_CONFIG


def _cmd_scenario(args) -> int:
    for name in RECIPE_NAMES:  # "list", the one scenario command
        print(f"{name}: {RECIPE_SUMMARIES[name]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracfluid",
        description="Two-spinor Dirac/Klein-Gordon evolution and the "
                    "spinor-to-relativistic-fluid map, with built-in checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config and write its artifacts")
    run_p.add_argument("--config", required=True, help="path to a scenario JSON file")
    run_p.add_argument("--outdir", default="runs", help="output root (default: ./runs)")
    run_p.add_argument("--override", action="append", default=[],
                       metavar="KEY.PATH=VALUE",
                       help="override a config entry (JSON-parsed value); repeatable")

    check_p = sub.add_parser("check", help="run the built-in verification suite")
    check_p.add_argument("--only", action="append", default=[], choices=CHECK_NAMES,
                         help="run only the named check; repeatable")
    check_p.add_argument("--list", action="store_true", help="list check names and exit")

    scen_p = sub.add_parser("scenario", help="scenario utilities")
    scen_sub = scen_p.add_subparsers(dest="scenario_command", required=True)
    scen_sub.add_parser("list", help="list the initial-data recipes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_scenario(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalInstabilityError as exc:
        print(f"numerical instability: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except SnapshotIOError as exc:
        print(f"snapshot I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
