"""Command-line entry point.

Subcommands: fringe, delay-scan, chsh, s-curve, budget. Each reads one
scenario (defaults, optionally a named preset, optionally a JSON file),
prints a short summary, and writes the authoritative JSON + CSV outputs
into --out.

Exit codes: 0 success, 2 configuration error, 3 numerical or
degenerate-data error. Errors are a single machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Any, Callable, NoReturn

import numpy as np

from .config import PRESETS, load_scenario
from .errors import ConfigurationError, DegenerateDataError
from .runners import run_budget, run_chsh, run_delay_scan, run_fringe, run_s_curve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_RUNNERS = {
    "fringe": run_fringe,
    "delay-scan": run_delay_scan,
    "chsh": run_chsh,
    "s-curve": run_s_curve,
    "budget": run_budget,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one CONFIG_ERROR line, exit 2."""

    def error(self, message: str) -> NoReturn:
        print("CONFIG_ERROR:", *message.splitlines(), file=sys.stderr)
        sys.exit(EXIT_CONFIG)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused after.

    parse_args leaves a parser unchanged, so one parser serves every main()
    call of a process; each call gets a fresh namespace of defaults.
    """
    parser = _Parser(
        prog="spdcpol",
        description=(
            "Simulate and analyze polarization-entangled photon pairs from a "
            "dispersive type-II down-conversion source: spectral overlap, delay "
            "compensation, fringes, CHSH, and gated counting statistics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "fringe": "coincidence fringes and visibilities (raw / accidental / subtracted)",
        "delay-scan": "|V_int(tau)| curve and the optimal compensation delay",
        "chsh": "single-point CHSH parameter with counts and sigma_S",
        "s-curve": "S(theta) sweep: model curve plus Monte-Carlo points",
        "budget": "pump-power chain and conversion-efficiency estimate",
    }
    for name, help_text in descriptions.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", default=None, help="scenario JSON file")
        p.add_argument("--out", metavar="DIR", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        p.add_argument("--runs", type=int, default=None, help="override run.runs")
        p.add_argument(
            "--preset",
            choices=sorted(PRESETS),
            default=None,
            help="named scenario bundle applied before the config file",
        )
    return parser


def run_guarded(compute: Callable[[], Any]) -> tuple[Any, int]:
    """compute() with overflow and NaN raising: (its value, EXIT_OK), or, after
    one CONFIG_ERROR or NUMERICAL_ERROR line on stderr, (None, EXIT_CONFIG or
    EXIT_NUMERICAL)."""
    try:
        with np.errstate(all="raise", under="ignore"):  # overflow and NaN: exit 3, not a warning
            return compute(), EXIT_OK
    except ConfigurationError as exc:  # messages may quote keys holding line breaks: join them
        print("CONFIG_ERROR:", *str(exc).splitlines(), file=sys.stderr)
        return None, EXIT_CONFIG
    except (DegenerateDataError, ArithmeticError) as exc:  # FloatingPointError, OverflowError, ...
        print("NUMERICAL_ERROR:", *str(exc).splitlines(), file=sys.stderr)
        return None, EXIT_NUMERICAL


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    scenario = functools.partial(
        load_scenario, config_path=args.config, preset=args.preset, seed=args.seed, runs=args.runs
    )
    record, code = run_guarded(lambda: _RUNNERS[args.command](scenario()))
    if code != EXIT_OK:
        return code
    try:
        written = record.write(args.out)
    except OSError as exc:  # --out names a file, or a directory that cannot be written
        print("CONFIG_ERROR: cannot write --out:", *str(exc).splitlines(), file=sys.stderr)
        return EXIT_CONFIG
    record.print_summary()
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
