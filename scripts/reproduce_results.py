#!/usr/bin/env python3
"""Run the full analysis chain into ./results.

Produces the standard set: calibrated fringes, the delay scan with the
located optimum, the single-point CHSH at the maximal-violation settings
(both the calibrated and the raw-visibility working points), the S(theta)
sweep, and the pump/efficiency budget.
"""

import argparse
from pathlib import Path

from spdcpol.config import load_scenario
from spdcpol.runners import run_budget, run_chsh, run_delay_scan, run_fringe, run_s_curve


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args(argv)

    jobs = [
        ("fringes_calibrated", run_fringe, dict(preset="paper-calibrated", runs=50)),
        ("delay_scan", run_delay_scan, dict()),
        ("chsh_calibrated", run_chsh, dict(preset="paper-calibrated", runs=200)),
        ("chsh_raw", run_chsh, dict(preset="raw-visibility", runs=200)),
        ("s_curve_ideal", run_s_curve, dict(preset="paper-ideal")),
        ("budget", run_budget, dict(preset="raw-visibility")),
    ]
    for subdir, runner, kwargs in jobs:
        cfg = load_scenario(seed=args.seed, **kwargs)
        record = runner(cfg)
        record.print_summary()
        for path in record.write(Path(args.out) / subdir):
            print(f"wrote {path}")
        print()


if __name__ == "__main__":
    main()
