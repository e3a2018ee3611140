"""Seeded scenario generator for the benchmark's workloads.

A workload is a list of CLI invocations of `spdcpol` (a "pass"). Every
scenario is a dict with

    name     directory name of its outputs inside a pass
    argv     subcommand and flags; the runner adds --config and --out
    config   JSON object written to the scenario's --config file
    expect   closed-form expectations the output checks compare against

All randomness comes from `random.Random` seeded with the workload name and
the workload seed, so the same seed gives the same scenarios on any
machine. The program only ever sees the generated config files and argv.
Costs are kept independent of the seed: every spectral-sweep pass holds
one spectrum per grid size, and the Monte-Carlo workloads fix their run
counts, so seeds change the inputs and not the amount of work.
"""

from __future__ import annotations

import math
import random

WORKLOADS = {
    "spectral-sweep": (
        "delay-scan over distinct spectra on 4097/8193/16385-point grids; "
        "the overlap scan in state dominates"
    ),
    "mc-counts": (
        "fringe and chsh at 2000 Monte-Carlo runs on override states; "
        "counting and polarimetry dominate"
    ),
    "full-chain": (
        "reproduce_results job list plus fringe and chsh on the spectral-model "
        "state; three commands resolve one spectrum"
    ),
}

C_LIGHT = 299_792_458.0
HBAR = 1.054_571_817e-34

# Waveguide of the modeled source, written explicitly into every generated
# dispersion block so the closed forms below never depend on program defaults.
DISPERSION = {
    "length_mm": 1.2,
    "v_te_m_per_s": 8.98e7,
    "v_tm_m_per_s": 9.01e7,
    "gvd_D_ps_nm_km": -790.0,
    "lambda_deg_nm": 1555.9,
    "delta0_per_m": 0.0,
}
GRID_SIZES = (4097, 8193, 16385)
MC_RUNS = 2000

# Guide longer than the +-200 fs window of the program's delay search covers
# (delta*L/2 = 222.47 fs). The 20 nm band keeps the interference kernel
# nonnegative, so delta*L/2 is the exact optimum and any miss is the window.
LONG_GUIDE_MM = 12.0
LONG_GUIDE_FILTER = {"shape": "top_hat", "center_nm": DISPERSION["lambda_deg_nm"], "fwhm_nm": 20.0}


def generate(workload: str, seed: int) -> list[dict]:
    """Scenario list of one pass of `workload` for workload seed `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{int(seed)}")
    return {
        "spectral-sweep": _spectral_sweep,
        "mc-counts": _mc_counts,
        "full-chain": _full_chain,
    }[workload](rng)


def _draw_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


# --- closed forms -------------------------------------------------------------


def walkoff_delay_fs(dispersion: dict) -> float:
    """Stationary-phase compensation delay delta*L/2 in fs."""
    delta = 1.0 / dispersion["v_te_m_per_s"] - 1.0 / dispersion["v_tm_m_per_s"]
    return delta * dispersion["length_mm"] * 1e-3 / 2.0 * 1e15


def interference_kernel_nonnegative(dispersion: dict, filt: dict, samples: int = 2001) -> bool:
    """True when h(W) = sinc(phi(W)) sinc(phi(-W)) g(w0+W)^2 g(w0-W)^2 >= 0.

    V_int(tau) is the integral of h(W) exp(2iW(tau - delta*L/2)) with h even
    and real, so h >= 0 makes delta*L/2 the exact global optimum of |V_int|.
    With negative lobes, side peaks can match or beat it (8 mm with a 60 nm
    top-hat puts two at +-13 fs), and the closed form no longer applies.
    The span is the program's default grid: 3x the filter's half-width.
    """
    lam0 = dispersion["lambda_deg_nm"] * 1e-9
    omega0 = 2.0 * math.pi * C_LIGHT / lam0
    delta = 1.0 / dispersion["v_te_m_per_s"] - 1.0 / dispersion["v_tm_m_per_s"]
    beta2 = -dispersion["gvd_D_ps_nm_km"] * 1e-6 * lam0**2 / (2.0 * math.pi * C_LIGHT)
    half_length = dispersion["length_mm"] * 1e-3 / 2.0
    center, fwhm = filt["center_nm"] * 1e-9, filt["fwhm_nm"] * 1e-9
    w_hi = 2.0 * math.pi * C_LIGHT / (center - fwhm / 2.0)
    w_lo = 2.0 * math.pi * C_LIGHT / (center + fwhm / 2.0)
    omega_max = 3.0 * 0.5 * (w_hi - w_lo)

    def sinc(x: float) -> float:
        return 1.0 if x == 0.0 else math.sin(x) / x

    def g(omega_abs: float) -> float:
        u = (2.0 * math.pi * C_LIGHT / omega_abs - center) / fwhm
        if filt["shape"] == "top_hat":
            return 1.0 if abs(u) <= 0.5 else 0.0
        return math.exp(-2.0 * math.log(2.0) * u * u)

    h = []
    for k in range(samples):
        om = omega_max * (2.0 * k / (samples - 1) - 1.0)
        phi_p = (dispersion["delta0_per_m"] - delta * om - beta2 * om * om) * half_length
        phi_m = (dispersion["delta0_per_m"] + delta * om - beta2 * om * om) * half_length
        h.append(sinc(phi_p) * sinc(phi_m) * (g(omega0 + om) * g(omega0 - om)) ** 2)
    return min(h) >= -1e-6 * max(h)


def budget_chain(detector: dict, budget: dict) -> dict:
    """Closed-form pump-power chain and conversion efficiency, output units."""
    power_in = budget["pump_power_mw"] * 1e-3
    power_guide = (
        power_in
        * budget["objective_transmission"]
        * budget["facet_transmission"]
        * budget["modal_overlap"]
    )
    duty = detector["trigger_rate_hz"] * detector["gate_width_ns"] * 1e-9
    pair_rate = budget["measured_cc_rate_hz"] / (
        detector["efficiency_1"] * detector["efficiency_2"] * duty * 0.5
    ) / budget["collection_transmission_per_arm"] ** 2
    pump_omega = 2.0 * math.pi * C_LIGHT / (budget["pump_lambda_nm"] * 1e-9)
    return {
        "power_in_guide_mw": power_guide * 1e3,
        "inferred_pair_rate_hz": pair_rate,
        "spdc_efficiency": pair_rate / (power_guide / (HBAR * pump_omega)),
        "duty_cycle": duty,
    }


# --- workloads ----------------------------------------------------------------


def _delay_scan(name: str, dispersion: dict, filt: dict, n_points: int, **expect) -> dict:
    return {
        "name": name,
        "argv": ["delay-scan"],
        "config": {"dispersion": dispersion, "filter": filt, "grid": {"n_points": n_points}},
        "expect": {"tau_star_fs": walkoff_delay_fs(dispersion), **expect},
    }


def _spectral_sweep(rng: random.Random) -> list[dict]:
    scenarios = []
    for n_points in GRID_SIZES:
        while True:
            dispersion = {**DISPERSION, "length_mm": round(rng.uniform(0.5, 8.0), 3)}
            filt = {
                "shape": rng.choice(("top_hat", "gaussian")),
                "center_nm": DISPERSION["lambda_deg_nm"],
                "fwhm_nm": round(rng.uniform(10.0, 120.0), 2),
            }
            if interference_kernel_nonnegative(dispersion, filt):
                break
        scenarios.append(_delay_scan(f"scan-{n_points}", dispersion, filt, n_points))
    long_guide = {**DISPERSION, "length_mm": LONG_GUIDE_MM}
    scenarios.append(
        _delay_scan(
            "scan-12mm", long_guide, dict(LONG_GUIDE_FILTER), 8193,
            known_defect={
                "check": "tau_star_fs",
                "why": "the delay search scans a fixed +-200 fs window and returns "
                "its edge for guides longer than about 10.8 mm",
            },
        )
    )
    return scenarios


def _mc_counts(rng: random.Random) -> list[dict]:
    coherence = round(rng.uniform(0.85, 0.97), 4)
    v_z = round(rng.uniform(0.75, 0.90), 4)
    v_d = round(rng.uniform(0.70, min(0.85, 0.5 * (1.0 + v_z))), 4)
    return [
        {
            "name": "fringe-calibrated",
            "argv": ["fringe", "--preset", "paper-calibrated"],
            "config": {
                "state": {"coherence": coherence},
                "run": {"runs": MC_RUNS, "seed": _draw_seed(rng)},
            },
            "expect": {"coherence": coherence},
        },
        {
            "name": "chsh-raw",
            "argv": ["chsh", "--preset", "raw-visibility"],
            "config": {
                "state": {"visibility_z": v_z, "visibility_d": v_d},
                "detector": {"accidental_calibration": 0.0},
                "run": {"runs": MC_RUNS, "seed": _draw_seed(rng)},
            },
            "expect": {"visibility_z": v_z, "visibility_d": v_d, "counts_unbiased": True},
        },
    ]


def _full_chain(rng: random.Random) -> list[dict]:
    seed = _draw_seed(rng)
    detector = {
        "trigger_rate_hz": 1.0e5,
        "gate_width_ns": 20.0,
        "efficiency_1": 0.25,
        "efficiency_2": 0.25,
    }
    budget = {
        "pump_power_mw": round(rng.uniform(5.0, 20.0), 3),
        "objective_transmission": round(rng.uniform(0.6, 0.8), 3),
        "facet_transmission": round(rng.uniform(0.6, 0.8), 3),
        "modal_overlap": round(rng.uniform(0.1, 0.3), 3),
        "collection_transmission_per_arm": round(rng.uniform(0.05, 0.15), 3),
        "measured_cc_rate_hz": round(rng.uniform(0.1, 0.5), 3),
        "pump_lambda_nm": 777.95,
    }
    walkoff = walkoff_delay_fs(DISPERSION)
    flags = ["--seed", str(seed)]
    # the job list of scripts/reproduce_results.py, then the two spectral-state commands
    return [
        {
            "name": "fringes_calibrated",
            "argv": ["fringe", "--preset", "paper-calibrated", "--runs", "50", *flags],
            "config": {"state": {"coherence": 0.91}},
            "expect": {"coherence": 0.91},
        },
        {
            "name": "delay_scan",
            "argv": ["delay-scan", *flags],
            "config": {"dispersion": dict(DISPERSION)},
            "expect": {"tau_star_fs": walkoff},
        },
        {
            "name": "chsh_calibrated",
            "argv": ["chsh", "--preset", "paper-calibrated", "--runs", "200", *flags],
            "config": {"state": {"coherence": 0.91}},
            "expect": {"visibility_z": 1.0, "visibility_d": 0.91},
        },
        {
            "name": "chsh_raw",
            "argv": ["chsh", "--preset", "raw-visibility", "--runs", "200", *flags],
            "config": {
                "state": {"visibility_z": 0.80, "visibility_d": 0.77},
                "detector": {"accidental_calibration": 0.0},
            },
            "expect": {"visibility_z": 0.80, "visibility_d": 0.77, "counts_unbiased": True},
        },
        {
            "name": "s_curve_ideal",
            "argv": ["s-curve", "--preset", "paper-ideal", *flags],
            "config": {"state": {"coherence": 1.0}},
            "expect": {"ideal_s_curve": True},
        },
        {
            "name": "budget",
            "argv": ["budget", "--preset", "raw-visibility", *flags],
            "config": {"detector": detector, "budget": budget},
            "expect": {"budget": budget_chain(detector, budget)},
        },
        {
            "name": "fringe_spectral",
            "argv": ["fringe", *flags],
            "config": {"dispersion": dict(DISPERSION), "state": {"tau_fs": "optimize"}},
            "expect": {"coherence": "v_int_abs", "tau_fs": walkoff},
        },
        {
            "name": "chsh_spectral",
            "argv": ["chsh", *flags],
            "config": {"dispersion": dict(DISPERSION), "state": {"tau_fs": "optimize"}},
            "expect": {"visibility_z": 1.0, "visibility_d": "v_int_abs", "tau_fs": walkoff},
        },
    ]
