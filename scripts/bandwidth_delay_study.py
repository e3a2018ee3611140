#!/usr/bin/env python3
"""Filter-bandwidth sensitivity of the compensation delay and pair coherence.

Sweeps the band-pass FWHM and reports, per width, the optimal delay, the
spectral overlap it achieves, and the concurrence of the post-selected
state. Narrower filters erase more of the walk-off labeling, so the
overlap climbs toward 1 while the optimum stays pinned near delta*L/2.
Each row is what `spdcpol delay-scan` reports on the defaults with that filter.
"""

import argparse
import csv
import sys

import numpy as np

from spdcpol.cli import run_guarded
from spdcpol.config import ScenarioConfig, base_config_dict
from spdcpol.runners import run_delay_scan
from spdcpol.units import to_fs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="bandwidth_delay.csv")
    parser.add_argument("--shape", choices=["top_hat", "gaussian"], default="top_hat")
    # centered on degeneracy so narrow bands still pass both pair photons
    parser.add_argument("--center-nm", type=float, default=1555.9)
    args = parser.parse_args(argv)

    def study() -> None:
        rows = [["fwhm_nm", "tau_star_fs", "v_int_abs", "concurrence", "grid_points"]]
        for fwhm_nm in np.arange(10.0, 121.0, 10.0):
            filt = {"shape": args.shape, "center_nm": args.center_nm, "fwhm_nm": float(fwhm_nm)}
            cfg = ScenarioConfig(data={**base_config_dict(), "filter": filt})
            cfg.validate()
            s = run_delay_scan(cfg).scalars
            tau, v, c = s["tau_star_fs"], s["v_int_abs_at_star"], s["concurrence_at_star"]
            n = s["grid_points"]
            rows.append([fwhm_nm, tau, v, c, n])
            print(f"fwhm={fwhm_nm:6.1f} nm  tau*={tau:7.2f} fs  |V|={v:.6f}  C={c:.6f}  N={n}")
        print(f"(delta*L/2 = {to_fs(cfg.dispersion().half_walkoff):.2f} fs)")

        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        print(f"wrote {args.out}")

    # errors end as in the spdcpol CLI: one stderr line, exit 2 or 3
    return run_guarded(study)[1]

if __name__ == "__main__":
    sys.exit(main())
