#!/usr/bin/env python3
"""Filter-bandwidth sensitivity of the compensation delay and pair coherence.

Sweeps the band-pass FWHM and reports, per width, the optimal delay, the
spectral overlap it achieves, and the concurrence of the post-selected
state. Narrower filters erase more of the walk-off labeling, so the
overlap climbs toward 1 while the optimum stays pinned near delta*L/2.
"""

import argparse
import csv
import sys

import numpy as np

from spdcpol import (
    SpectralFilter,
    WaveguideDispersion,
    build_jsa,
    concurrence,
    default_grid,
    optimal_delay,
    overlap_scan,
    post_selected_state,
)
from spdcpol.state import DELAY_HALF_WIDTH


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="bandwidth_delay.csv")
    parser.add_argument("--shape", choices=["top_hat", "gaussian"], default="top_hat")
    # centered on degeneracy so narrow bands still pass both pair photons
    parser.add_argument("--center-nm", type=float, default=1555.9)
    args = parser.parse_args(argv)

    disp = WaveguideDispersion(
        length_L=1.2e-3, v_te=8.98e7, v_tm=9.01e7, gvd_D=-7.9e-4, lambda_deg=1555.9e-9
    )
    half_walkoff = disp.half_walkoff
    tau_max = abs(half_walkoff) + DELAY_HALF_WIDTH  # the reach of the delay search

    rows = []
    for fwhm_nm in np.arange(10.0, 121.0, 10.0):
        filt = SpectralFilter(
            shape=args.shape, center_lambda=args.center_nm * 1e-9, fwhm_lambda=fwhm_nm * 1e-9
        )
        jsa = build_jsa(disp, filt, default_grid(disp, filt, tau_max))
        tau_star = optimal_delay(jsa, half_walkoff)
        v_int = overlap_scan(jsa, tau_star, 0.0, 1)[0]
        c = concurrence(post_selected_state(v_int))
        rows.append([fwhm_nm, round(tau_star * 1e15, 2), abs(v_int), c, jsa.grid.n_points])
        print(
            f"fwhm={fwhm_nm:6.1f} nm  tau*={tau_star * 1e15:7.2f} fs  "
            f"|V|={abs(v_int):.6f}  C={c:.6f}  N={jsa.grid.n_points}"
        )
    print(f"(delta*L/2 = {half_walkoff * 1e15:.2f} fs)")

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fwhm_nm", "tau_star_fs", "v_int_abs", "concurrence", "grid_points"])
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
