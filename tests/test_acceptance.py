"""Acceptance suite: the quantitative contract of the whole pipeline.

Eight criteria cover the analytic identities, the anchored lab-scale
values with their stated tolerances, and the statistical property suites.
Each test prints one PASS/FAIL line (run with -s to see them); tolerances
are pinned here, not tuned elsewhere.
"""

import numpy as np

from conftest import norm_sq, random_density_batch, search_grid
from spdcpol import (
    DetectorModel,
    SpectralFilter,
    WaveguideDispersion,
    accidental_rate,
    build_jsa,
    canonical_settings,
    chsh_estimate,
    chsh_from_counts,
    chsh_table,
    coincidence_probs,
    concurrence,
    efficiency_budget,
    fit_fringe,
    mean_counts,
    optimal_delay,
    overlap_scan,
    post_selected_state,
    poisson_counts,
    visibility_state,
)
from spdcpol.config import load_scenario
from spdcpol.runners import run_delay_scan

DEG = np.pi / 180.0
SQRT2 = np.sqrt(2.0)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _paper_disp(gvd=-7.9e-4):
    return WaveguideDispersion(
        length_L=1.2e-3, v_te=8.98e7, v_tm=9.01e7, gvd_D=gvd, lambda_deg=1555.9e-9
    )


def _filter(shape="top_hat"):
    return SpectralFilter(shape=shape, center_lambda=1550e-9, fwhm_lambda=45e-9)


def _detector(**overrides):
    base = dict(
        trigger_rate=1e5,
        gate_width=100e-9,
        coincidence_window=3e-9,
        efficiency_1=0.25,
        efficiency_2=0.25,
        singles_rate_1=3550.0,
        singles_rate_2=6200.0,
        accidental_calibration=1.0,
    )
    base.update(overrides)
    return DetectorModel(**base)


def _batched_E(rhos, t1, t2):
    """Vectorized correlation fraction for batches of states and angles."""
    q = 0.5 * np.pi
    # (cos, sin) of each analyzer angle, taken once: arm 1 at t1, t1 + q; arm 2 at t2, t2 + q
    a, a_q, b, b_q = ((np.cos(t), np.sin(t)) for t in (t1, t1 + q, t2, t2 + q))

    def prob(arm1, arm2):
        (ca, sa), (cb, sb) = arm1, arm2
        v = np.stack([ca * sb, ca * cb, -sa * sb, -sa * cb], axis=1)
        return np.real(np.einsum("ni,nij,nj->n", v, rhos, v))

    p1 = prob(a, b)
    p2 = prob(a_q, b_q)
    p3 = prob(a_q, b)
    p4 = prob(a, b_q)
    return (p1 + p2 - p3 - p4) / (p1 + p2 + p3 + p4)


def _signed_s(state, settings):
    """Signed CHSH sums of the tables of settings (K, 4)."""
    return chsh_estimate(chsh_table(state.rho, settings))[0]


# --- criterion 1: ideal S(theta) identity -------------------------------------


def test_criterion_1_ideal_s_curve_identity():
    thetas = np.arange(0.0, 360.0 + 0.5, 1.0) * DEG
    curve = _signed_s(post_selected_state(1.0), canonical_settings(thetas))
    ideal = 3.0 * np.cos(2.0 * thetas) - np.cos(6.0 * thetas)
    max_err = float(np.max(np.abs(curve - ideal)))
    peak = _signed_s(post_selected_state(1.0), canonical_settings([22.5 * DEG]))[0]
    peak_err = abs(peak - 2.0 * SQRT2)
    _verdict(
        1,
        "ideal S(theta) = 3cos2t - cos6t",
        max_err < 1e-9 and peak_err < 1e-9,
        f"(max|err|={max_err:.2e}, |S(22.5)-2sqrt2|={peak_err:.2e})",
    )


# --- criterion 2: ideal fringe law ----------------------------------------------


def test_criterion_2_ideal_fringe_identity():
    state = post_selected_state(1.0)
    t1 = np.arange(0.0, 360.0, 5.0)[:, None] * DEG
    t2 = np.arange(0.0, 360.0, 5.0)[None, :] * DEG
    probs = coincidence_probs(state.rho, t1, t2)
    worst = float(np.max(np.abs(probs - 0.5 * np.cos(t1 + t2) ** 2)))
    _verdict(2, "ideal fringe cos^2(t1+t2)/2 on 5x5 deg grid", worst < 1e-12, f"(max|err|={worst:.2e})")


# --- criterion 3: X-state closed forms -------------------------------------------


def test_criterion_3_x_state_closed_forms():
    rng = np.random.default_rng(2024)
    settings = canonical_settings([22.5 * DEG])
    worst_e = worst_s = 0.0
    for _ in range(100):
        c = rng.uniform(0.0, 1.0)
        state = post_selected_state(c)
        t1, t2 = rng.uniform(0.0, 2 * np.pi, size=2)
        e_closed = np.cos(2 * t1) * np.cos(2 * t2) - c * np.sin(2 * t1) * np.sin(2 * t2)
        # E(t1, t2) is block 0 of the table whose first settings are t1 and t2
        e = chsh_estimate(chsh_table(state.rho, [[t1, 0.0, t2, 0.0]]))[1][0, 0]
        worst_e = max(worst_e, abs(e - e_closed))
        worst_s = max(worst_s, abs(abs(_signed_s(state, settings)[0]) - SQRT2 * (1.0 + c)))
    _verdict(
        3,
        "X-state E and S closed forms (100 random c)",
        worst_e < 1e-9 and worst_s < 1e-9,
        f"(max|dE|={worst_e:.2e}, max|dS|={worst_s:.2e})",
    )


# --- criterion 4: anchored visibilities -------------------------------------------


def test_criterion_4_visibilities():
    theta2 = np.arange(0.0, 360.0 + 5.0, 10.0) * DEG
    state = post_selected_state(0.91)

    # noiseless path: subtracted visibility at 45 degrees is the coherence
    vis_45 = fit_fringe(theta2, coincidence_probs(state.rho, 45.0 * DEG, theta2))
    noiseless_ok = abs(vis_45 - 0.91) < 1e-9

    # calibrated accidental preset: raw visibilities over >= 200 seeds
    model = _detector(accidental_calibration=0.026)
    t_int, pair_rate, n_seeds = 60.0, 6.0, 200
    means = {}
    for offset, (label, theta1, target) in enumerate((("z", 0.0, 0.80), ("d", 45.0 * DEG, 0.77))):
        probs = coincidence_probs(state.rho, theta1, theta2)
        counts_mean = mean_counts(probs, model, pair_rate, t_int)
        fits = [
            fit_fringe(theta2, poisson_counts(counts_mean, seed=10_000 * offset + s))
            for s in range(n_seeds)
        ]
        means[label] = (float(np.mean(fits)), target)
    raw_ok = all(abs(mean - target) < 0.05 for mean, target in means.values())
    _verdict(
        4,
        "visibilities: 0.91 subtracted exact; raw near 0.80/0.77",
        noiseless_ok and raw_ok,
        f"(V45_sub={vis_45:.4f}, raw_z={means['z'][0]:.3f}, raw_d={means['d'][0]:.3f})",
    )


# --- criterion 5: delay compensation ------------------------------------------------


def test_criterion_5_delay_compensation():
    filt = _filter()
    disp = _paper_disp()
    half_walkoff = disp.delta * disp.length_L / 2.0
    off_disp = _paper_disp(gvd=0.0)
    gvd_off = build_jsa(off_disp, filt, search_grid(off_disp, filt))
    tau_off = optimal_delay(gvd_off, half_walkoff) * 1e15
    off_ok = abs(tau_off - 22.25) <= 0.1

    full = build_jsa(disp, filt, search_grid(disp, filt))
    tau_full = optimal_delay(full, half_walkoff) * 1e15
    full_ok = 20.0 <= tau_full <= 35.0

    record = run_delay_scan(load_scenario())
    scalars = record.scalars
    juxtaposed = (
        scalars["reference_delay_experiment_fs"] == 32.0
        and scalars["reference_delay_calculated_fs"] == 31.2
        and "stationary-phase" in scalars["delay_model_note"]
        and abs(scalars["tau_star_fs"] - tau_full) < 0.1
    )
    _verdict(
        5,
        "delay optimum: 22.25 fs (gvd off), [20,35] fs (full), references reported",
        off_ok and full_ok and juxtaposed,
        f"(tau_gvd_off={tau_off:.2f} fs, tau_full={tau_full:.2f} fs)",
    )


# --- criterion 6: CHSH from counts ---------------------------------------------------


def _expected_table(state, settings, model, pair_rate, t_int):
    return mean_counts(chsh_table(state.rho, settings), model, pair_rate, t_int)[0]


def test_criterion_6_chsh_from_counts():
    settings = canonical_settings([22.5 * DEG])
    model_clean = _detector(accidental_calibration=0.0)

    # noiseless tables reproduce the model S for assorted states
    worst = 0.0
    for state in (post_selected_state(1.0), post_selected_state(0.91), visibility_state(0.8, 0.77)):
        table = _expected_table(state, settings, model_clean, 6.0, 60.0)
        s_counts, _ = chsh_from_counts(table)
        worst = max(worst, abs(s_counts - abs(_signed_s(state, settings)[0])))
    noiseless_ok = worst < 1e-9

    # raw-visibility working point: between 2 and the uncorrected lab value
    raw_state = visibility_state(0.80, 0.77)
    s_raw, _ = chsh_from_counts(_expected_table(raw_state, settings, model_clean, 6.0, 60.0))
    raw_ok = abs(s_raw - 2.22) < 0.01 and 2.0 < s_raw < 2.61

    # propagation versus Monte-Carlo spread at fringe-scale totals
    model_cal = _detector(accidental_calibration=0.026)
    state = post_selected_state(0.91)
    expected = _expected_table(state, settings, model_cal, 6.0, 60.0)
    _, sigma_prop = chsh_from_counts(expected)
    draws = np.array([chsh_from_counts(poisson_counts(expected, seed=s))[0] for s in range(1000)])
    spread_ok = abs(draws.std() - sigma_prop) / sigma_prop < 0.20

    # 0.3 pairs/s peak rate, minutes of integration: sigma_S brackets 0.16
    model_20ns = _detector(
        accidental_calibration=0.0, gate_width=20e-9, singles_rate_1=600.0, singles_rate_2=500.0
    )
    _, sigma_low = chsh_from_counts(_expected_table(raw_state, settings, model_20ns, 0.6, 120.0))
    low_rate_ok = 0.1 <= sigma_low <= 0.3

    _verdict(
        6,
        "CHSH from counts: consistency, S=2.22 raw point, sigma_S behavior",
        noiseless_ok and raw_ok and spread_ok and low_rate_ok,
        f"(noiseless err={worst:.1e}, S_raw={s_raw:.4f}, "
        f"mc/prop={draws.std() / sigma_prop:.3f}, sigma_low={sigma_low:.3f})",
    )


# --- criterion 7: pump and efficiency budget -------------------------------------------


def test_criterion_7_budget():
    model = _detector(gate_width=20e-9, singles_rate_1=600.0, singles_rate_2=500.0)
    power, _, eff = efficiency_budget(
        pump_power_in=13e-3,
        objective_T=0.70,
        facet_T=0.73,
        overlap=0.20,
        collection_T_per_arm=0.10,
        model=model,
        measured_cc_rate=0.3,
    )
    power_ok = abs(power - 1.33e-3) < 0.01e-3
    eff_ok = 1e-11 <= eff <= 1e-9
    _verdict(
        7,
        "budget: 13 mW -> 1.33 mW, efficiency within a decade of 1e-10",
        power_ok and eff_ok,
        f"(power={power * 1e3:.4f} mW, efficiency={eff:.3e})",
    )


# --- criterion 8: property suites -----------------------------------------------------


def test_criterion_8_property_suites():
    rng = np.random.default_rng(808)
    checks: dict[str, bool] = {}

    # density-matrix invariants for 1000 random coherences on the unit disk
    ok = True
    for _ in range(1000):
        v = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        rho = post_selected_state(v).rho
        ok &= bool(np.allclose(rho, rho.conj().T, atol=1e-12))
        ok &= bool(abs(np.trace(rho) - 1.0) < 1e-12)
        ok &= bool(np.linalg.eigvalsh(rho).min() > -1e-10)
    checks["rho_invariants"] = ok

    # |V_int| <= 1 across random dispersion/delay draws
    ok = True
    filt = _filter()
    for _ in range(60):
        disp = WaveguideDispersion(
            length_L=rng.uniform(0.2e-3, 3e-3),
            v_te=8.98e7,
            v_tm=rng.uniform(8.6e7, 9.4e7),
            gvd_D=rng.uniform(-2e-3, 2e-3),
            lambda_deg=1555.9e-9,
        )
        jsa = build_jsa(disp, filt, search_grid(disp, filt, n_points=1025))
        tau = rng.uniform(-300e-15, 300e-15)
        ok &= abs(overlap_scan(jsa, tau, 0.0, 1)[0]) <= 1.0 + 1e-10
    checks["overlap_bounded"] = ok

    # E in [-1, 1] over 1e6 random states and angle pairs
    ok = True
    for _ in range(10):
        rhos = random_density_batch(rng, 100_000)
        t1, t2 = rng.uniform(0, 2 * np.pi, size=(2, 100_000))
        e = _batched_E(rhos, t1, t2)
        ok &= bool(np.all(e >= -1.0 - 1e-9) and np.all(e <= 1.0 + 1e-9))
    checks["e_bounded_1e6"] = ok

    # Tsirelson bound over 1e4 random states and settings
    rhos = random_density_batch(rng, 10_000)
    t = rng.uniform(0, 2 * np.pi, size=(4, 10_000))
    s = np.abs(
        _batched_E(rhos, t[0], t[2])
        - _batched_E(rhos, t[0], t[3])
        + _batched_E(rhos, t[1], t[2])
        + _batched_E(rhos, t[1], t[3])
    )
    checks["tsirelson_1e4"] = bool(np.all(s <= 2.0 * SQRT2 + 1e-9))

    # seed determinism of the counting simulation
    state = post_selected_state(0.91)
    model = _detector(accidental_calibration=0.026)
    settings = canonical_settings([22.5 * DEG])
    expected = _expected_table(state, settings, model, 6.0, 60.0)
    t_a = poisson_counts(expected, seed=5)
    t_b = poisson_counts(expected, seed=5)
    acc_a = poisson_counts(accidental_rate(model) * 60.0, seed=6, size=37)
    acc_b = poisson_counts(accidental_rate(model) * 60.0, seed=6, size=37)
    checks["seed_determinism"] = bool(
        np.array_equal(t_a, t_b) and np.array_equal(acc_a, acc_b)
    )

    # quadrature doubling convergence on the smooth filter profile
    gauss = _filter(shape="gaussian")
    disp = _paper_disp()
    coarse = norm_sq(build_jsa(disp, gauss, search_grid(disp, gauss, n_points=4097)))
    fine = norm_sq(build_jsa(disp, gauss, search_grid(disp, gauss, n_points=8193)))
    checks["quadrature_doubling"] = abs(fine - coarse) / fine < 1e-6

    # concurrence equals the coherence magnitude
    worst = 0.0
    for v in [0.5, 0.9, 0.99999, 0.99999998, 1.0]:  # near pure states too
        worst = max(worst, abs(concurrence(post_selected_state(v)) - v))
    for _ in range(200):
        v = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        worst = max(worst, abs(concurrence(post_selected_state(v)) - abs(v)))
    checks["concurrence_identity"] = worst < 1e-14

    failed = [name for name, ok in checks.items() if not ok]
    _verdict(8, "property suites", not failed, f"(failed: {failed or 'none'})")
