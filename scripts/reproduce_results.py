#!/usr/bin/env python3
"""Run the full analysis chain into ./results.

Produces the standard set: calibrated fringes, the delay scan with the
located optimum, the single-point CHSH at the maximal-violation settings
(both the calibrated and the raw-visibility working points), the S(theta)
sweep, and the pump/efficiency budget. Each job runs through spdcpol.cli.main;
the first that fails ends the run with its exit code.
"""

import argparse
import sys
from pathlib import Path

from spdcpol import cli

JOBS = {
    "fringes_calibrated": ["fringe", "--preset", "paper-calibrated", "--runs", "50"],
    "delay_scan": ["delay-scan"],
    "chsh_calibrated": ["chsh", "--preset", "paper-calibrated", "--runs", "200"],
    "chsh_raw": ["chsh", "--preset", "raw-visibility", "--runs", "200"],
    "s_curve_ideal": ["s-curve", "--preset", "paper-ideal"],
    "budget": ["budget", "--preset", "raw-visibility"],
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args(argv)

    for subdir, job in JOBS.items():
        code = cli.main([*job, "--seed", str(args.seed), "--out", str(Path(args.out) / subdir)])
        if code != cli.EXIT_OK:
            return code
        print()
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
