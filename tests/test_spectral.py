import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import norm_sq, search_grid
from spdcpol import (
    ConfigurationError,
    DegenerateDataError,
    SpectralFilter,
    SpectralGrid,
    WaveguideDispersion,
    beta2_from_d,
    build_jsa,
    default_grid,
    filter_amplitude,
    phase_mismatch,
)
from spdcpol import spectral
from spdcpol.units import omega_from_lambda


# --- beta2_from_d -------------------------------------------------------------
# hand evaluation of -D lam^2 / (2 pi c), c = 299792458 m/s:
#   D = -7.9e-4 s/m^2 (i.e. -790 ps/(nm km)), lam = 1.55 um -> +1.007604e-24 s^2/m
#   D = +1.7e-5 s/m^2 (i.e. +17 ps/(nm km)),  lam = 1.55 um -> -2.168250e-26 s^2/m


def test_beta2_normal_dispersion_telecom():
    assert_allclose(beta2_from_d(-7.9e-4, 1.55e-6), 1.007604e-24, rtol=1e-5)


def test_beta2_zero_d():
    assert beta2_from_d(0.0, 1.55e-6) == 0.0


def test_beta2_anomalous_fiber_value():
    assert_allclose(beta2_from_d(1.7e-5, 1.55e-6), -2.168250e-26, rtol=1e-5)


def test_beta2_rejects_nonpositive_wavelength():
    with pytest.raises(ValueError):
        beta2_from_d(-7.9e-4, 0.0)
    with pytest.raises(ValueError):
        beta2_from_d(-7.9e-4, -1e-6)


# --- WaveguideDispersion.delta ------------------------------------------------
# 1/8.98e7 - 1/9.01e7 = 3.707833e-11 s/m, about 37.08 fs/mm


def test_gvm_value(paper_disp):
    assert_allclose(paper_disp.delta, 3.707833e-11, rtol=1e-6)
    assert_allclose(paper_disp.delta * 1e15 * 1e-3, 37.078, rtol=1e-4)  # fs/mm


def test_gvm_zero_for_equal_velocities():
    disp = WaveguideDispersion(length_L=1e-3, v_te=9e7, v_tm=9e7, gvd_D=0.0)
    assert disp.delta == 0.0


def test_gvm_antisymmetric_under_swap(paper_disp):
    swapped = WaveguideDispersion(
        length_L=paper_disp.length_L,
        v_te=paper_disp.v_tm,
        v_tm=paper_disp.v_te,
        gvd_D=paper_disp.gvd_D,
        lambda_deg=paper_disp.lambda_deg,
    )
    assert swapped.delta == -paper_disp.delta


# --- phase_mismatch ---------------------------------------------------------


def test_phase_zero_at_degeneracy(paper_disp):
    assert phase_mismatch(0.0, paper_disp) == 0.0


def test_phase_hand_value():
    # delta = 3.707833e-11 s/m and beta_plus = 1.007604e-24 s^2/m at 1.55 um;
    # phi(1e13) = -(delta*1e13 + beta_plus*1e26) * L/2 = -0.2829262 rad
    disp = WaveguideDispersion(
        length_L=1.2e-3, v_te=8.98e7, v_tm=9.01e7, gvd_D=-7.9e-4, lambda_deg=1.55e-6
    )
    assert_allclose(phase_mismatch(1e13, disp), -0.2829262, rtol=1e-5)


def test_phase_parity_decomposition(paper_disp):
    # with delta0 = 0 the odd (walk-off) part cancels in phi(w) + phi(-w)
    om = np.linspace(1e11, 3e13, 17)
    total = phase_mismatch(om, paper_disp) + phase_mismatch(-om, paper_disp)
    expected = -paper_disp.beta2 * om**2 * paper_disp.length_L
    assert_allclose(total, expected, rtol=1e-12)


def test_phase_nonzero_delta0():
    disp = WaveguideDispersion(
        length_L=2e-3, v_te=9e7, v_tm=9e7, gvd_D=0.0, delta0=100.0
    )
    assert_allclose(phase_mismatch(0.0, disp), 100.0 * 2e-3 / 2)


# --- filter_amplitude ---------------------------------------------------------


def test_filter_unity_at_center(top_hat_filter, gaussian_filter):
    w_center = omega_from_lambda(1550e-9)
    assert filter_amplitude(w_center, top_hat_filter) == 1.0
    assert_allclose(filter_amplitude(w_center, gaussian_filter), 1.0, atol=1e-15)


def test_top_hat_cuts_outside_band(top_hat_filter):
    assert filter_amplitude(omega_from_lambda(1526e-9), top_hat_filter) == 0.0
    assert filter_amplitude(omega_from_lambda(1574e-9), top_hat_filter) == 0.0
    assert filter_amplitude(omega_from_lambda(1528e-9), top_hat_filter) == 1.0


def test_gaussian_half_intensity_at_half_fwhm(gaussian_filter):
    for lam in (1550e-9 - 22.5e-9, 1550e-9 + 22.5e-9):
        g = filter_amplitude(omega_from_lambda(lam), gaussian_filter)
        assert_allclose(g, 1.0 / np.sqrt(2.0), rtol=1e-12)


def test_filter_rejects_nonpositive_frequency(top_hat_filter):
    with pytest.raises(ValueError):
        filter_amplitude(0.0, top_hat_filter)


@given(
    center=st.floats(1.0e-6, 2.0e-6),
    fwhm=st.floats(5e-9, 100e-9),
    shape=st.sampled_from(["top_hat", "gaussian"]),
)
@settings(max_examples=50, deadline=None)
def test_filter_pair_product_even(center, fwhm, shape):
    # g(w0+W) g(w0-W) swaps its factors under W -> -W: even for any center
    filt = SpectralFilter(shape=shape, center_lambda=center, fwhm_lambda=fwhm)
    omega0 = omega_from_lambda(1555.9e-9)
    grid = SpectralGrid(omega_max=5e13, n_points=257)
    om = grid.omegas
    product = filter_amplitude(omega0 + om, filt) * filter_amplitude(omega0 - om, filt)
    assert np.array_equal(product, product[::-1])


# --- grid -------------------------------------------------------------------


def test_grid_symmetry_exact():
    grid = SpectralGrid(omega_max=5.3e13, n_points=8193)
    om = grid.omegas
    assert np.array_equal(om, -om[::-1])
    assert om[(grid.n_points - 1) // 2] == 0.0


def test_grid_rejects_even_or_tiny():
    with pytest.raises(ValueError):
        SpectralGrid(omega_max=1e13, n_points=8192)
    with pytest.raises(ValueError):
        SpectralGrid(omega_max=1e13, n_points=1)


def test_grid_rejects_nan_span():
    with pytest.raises(ValueError, match="omega_max must be positive, got nan"):
        SpectralGrid(omega_max=math.nan, n_points=1025)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("length_L", math.nan, "length_L must be positive, got nan"),
        ("v_te", math.nan, "group velocities must be positive"),
        ("v_tm", math.nan, "group velocities must be positive"),
        ("lambda_deg", math.nan, "lambda_deg must be positive, got nan"),
        ("gvd_D", math.nan, "gvd_D must be finite"),
        ("gvd_D", -math.inf, "gvd_D must be finite"),
        ("delta0", math.nan, "delta0 must be finite"),
    ],
)
def test_dispersion_rejects_nan(paper_disp, field, value, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(paper_disp, **{field: value})


@pytest.mark.parametrize("field", ["center_lambda", "fwhm_lambda"])
def test_filter_rejects_nan(top_hat_filter, field):
    with pytest.raises(ValueError, match=f"{field} must be positive, got nan"):
        dataclasses.replace(top_hat_filter, **{field: math.nan})


def test_default_grid_width(paper_disp, top_hat_filter):
    # the top-hat's support [-Omega_c, Omega_c], every node inside the band
    grid = search_grid(paper_disp, top_hat_filter)
    omega0 = omega_from_lambda(1555.9e-9)
    w_lo = omega_from_lambda(1550e-9 + 22.5e-9)
    w_hi = omega_from_lambda(1550e-9 - 22.5e-9)
    assert_allclose(grid.omega_max, min(omega0 - w_lo, w_hi - omega0), rtol=1e-12)
    om = grid.omegas
    g_pair = filter_amplitude(omega0 + om, top_hat_filter) * filter_amplitude(
        omega0 - om, top_hat_filter
    )
    assert np.all(g_pair == 1.0)
    assert grid.n_points == 1025


def _phase_per_step(disp, grid, tau_max):
    """Largest sinc phase and delay phase 2*Omega*tau_max one step of grid carries."""
    om = grid.omegas
    phi = -(disp.delta * om + disp.beta2 * om**2) * disp.length_L / 2  # less delta0's constant
    return np.max(np.abs(np.diff(phi))), 2.0 * grid.step * tau_max


@pytest.mark.parametrize(
    "length_mm, fwhm_nm, tau_max",
    [(0.3, 10.0, None), (1.2, 45.0, None), (12.0, 45.0, None), (12.0, 10.0, None), (1.2, 45.0, 0)],
)
@pytest.mark.parametrize("delta0", [0.0, 1e20])  # a constant phase of 6e16 rad changes nothing
def test_default_grid_count_is_the_fewest_within_the_phase_limit(
    length_mm, fwhm_nm, tau_max, delta0
):
    disp = WaveguideDispersion(
        length_L=length_mm * 1e-3,
        v_te=8.98e7,
        v_tm=9.01e7,
        gvd_D=-7.9e-4,
        lambda_deg=1555.9e-9,
        delta0=delta0,
    )
    filt = SpectralFilter(shape="top_hat", center_lambda=1555.9e-9, fwhm_lambda=fwhm_nm * 1e-9)
    if tau_max is None:
        tau_max = abs(disp.delta * disp.length_L / 2) + 200e-15
    grid = default_grid(disp, filt, tau_max)
    assert (grid.n_points - 1) & (grid.n_points - 2) == 0  # 2**k + 1
    assert max(_phase_per_step(disp, grid, tau_max)) <= spectral.MAX_PHASE_STEP
    if grid.n_points > 5:
        coarser = SpectralGrid(grid.omega_max, (grid.n_points + 1) // 2)
        assert max(_phase_per_step(disp, coarser, tau_max)) > spectral.MAX_PHASE_STEP


def test_default_grid_gaussian_span_leaves_only_the_stated_tail(paper_disp, gaussian_filter):
    grid = search_grid(paper_disp, gaussian_filter)
    omega0 = paper_disp.omega_deg
    beyond = grid.omega_max * np.linspace(1.0, 1.5, 501)
    product = filter_amplitude(omega0 + beyond, gaussian_filter) * filter_amplitude(
        omega0 - beyond, gaussian_filter
    )
    assert np.max(product**2) <= spectral.GAUSSIAN_TAIL
    assert product[0] ** 2 > 1e-3 * spectral.GAUSSIAN_TAIL  # not needlessly wide either


def test_default_grid_takes_a_set_span_or_count(paper_disp, top_hat_filter):
    rule = search_grid(paper_disp, top_hat_filter)
    count = search_grid(paper_disp, top_hat_filter, n_points=257)
    assert count == SpectralGrid(rule.omega_max, 257)
    wide = search_grid(paper_disp, top_hat_filter, omega_max=4 * rule.omega_max)
    assert wide.omega_max == 4 * rule.omega_max and wide.n_points == 4 * rule.n_points - 3
    both = search_grid(paper_disp, top_hat_filter, omega_max=3e13, n_points=11)
    assert both == SpectralGrid(3e13, 11)


def test_default_grid_beyond_max_points_raises():
    # 1/v_te = 1e3 s/m: about 1e10 rad of sinc phase across the band
    disp = WaveguideDispersion(
        length_L=1.2e-3, v_te=1e-3, v_tm=9.01e7, gvd_D=-7.9e-4, lambda_deg=1555.9e-9
    )
    filt = SpectralFilter(shape="top_hat", center_lambda=1550e-9, fwhm_lambda=45e-9)
    with pytest.raises(DegenerateDataError, match=r"needs 2\*\*50 \+ 1 points, more than 1048576"):
        default_grid(disp, filt, 200e-15)
    with pytest.raises(DegenerateDataError, match="needs unboundedly many points"):
        default_grid(disp, filt, math.inf)
    assert default_grid(disp, filt, 200e-15, n_points=1025).n_points == 1025


def test_default_grid_count_stops_at_max_points(paper_disp, top_hat_filter):
    # the largest 2**k + 1 within MAX_POINTS = 2**20 is 2**19 + 1: 2**18 steps per half-span
    span = search_grid(paper_disp, top_hat_filter).omega_max
    tau_cap = 2**18 * spectral.MAX_PHASE_STEP / (2.0 * span)  # delay phase needs 2**18 steps
    below = default_grid(paper_disp, top_hat_filter, tau_cap * (1.0 - 1e-9))
    assert below.n_points == 2**19 + 1
    with pytest.raises(DegenerateDataError, match=r"needs 2\*\*20 \+ 1 points"):
        default_grid(paper_disp, top_hat_filter, tau_cap * (1.0 + 1e-9))


def test_default_grid_top_hat_missing_the_degenerate_wavelength_raises(paper_disp):
    filt = SpectralFilter(shape="top_hat", center_lambda=1500e-9, fwhm_lambda=45e-9)
    with pytest.raises(DegenerateDataError, match="1555.9 nm"):
        search_grid(paper_disp, filt)


# --- build_jsa ----------------------------------------------------------------


def test_jsa_unity_at_degeneracy():
    disp = WaveguideDispersion(
        length_L=1.2e-3, v_te=8.98e7, v_tm=9.01e7, gvd_D=-7.9e-4, lambda_deg=1555.9e-9
    )
    filt = SpectralFilter(shape="top_hat", center_lambda=1555.9e-9, fwhm_lambda=45e-9)
    jsa = build_jsa(disp, filt, search_grid(disp, filt))
    center = (jsa.grid.n_points - 1) // 2
    assert jsa.amplitude[center] == 1.0 + 0.0j


def test_jsa_even_when_walkoff_absent(top_hat_filter):
    disp = WaveguideDispersion(
        length_L=1.2e-3, v_te=9.0e7, v_tm=9.0e7, gvd_D=-7.9e-4, lambda_deg=1555.9e-9
    )
    jsa = build_jsa(disp, top_hat_filter, search_grid(disp, top_hat_filter))
    assert np.array_equal(jsa.amplitude, jsa.amplitude[::-1])


def test_jsa_zero_outside_top_hat_band(paper_disp, top_hat_filter):
    # a span of 3x the band's half-width, wider than the support on both sides
    w_lo, w_hi = top_hat_filter.band_edges_omega()
    wide = search_grid(paper_disp, top_hat_filter, omega_max=1.5 * (w_hi - w_lo))
    jsa = build_jsa(paper_disp, top_hat_filter, wide)
    om = jsa.grid.omegas
    omega0 = paper_disp.omega_deg
    g_pair = filter_amplitude(omega0 + om, top_hat_filter) * filter_amplitude(
        omega0 - om, top_hat_filter
    )
    assert np.all(jsa.amplitude[g_pair == 0.0] == 0.0)
    assert np.any(g_pair == 0.0) and np.any(g_pair == 1.0)


@given(
    shape=st.sampled_from(["top_hat", "gaussian"]),
    center_nm=st.floats(1535.0, 1575.0),
    fwhm_nm=st.floats(5.0, 80.0),
    span=st.floats(1.0, 3.0),
    half=st.integers(1, 4096),
    length_mm=st.floats(0.1, 20.0),
    v_tm=st.floats(8.5e7, 9.5e7),
    gvd=st.floats(-2e-3, 2e-3),
)
@settings(max_examples=60, deadline=None)
def test_jsa_is_bitwise_the_product_of_both_filter_evaluations(
    shape, center_nm, fwhm_nm, span, half, length_mm, v_tm, gvd
):
    disp = WaveguideDispersion(
        length_L=length_mm * 1e-3, v_te=8.98e7, v_tm=v_tm, gvd_D=gvd, lambda_deg=1555.9e-9
    )
    filt = SpectralFilter(shape=shape, center_lambda=center_nm * 1e-9, fwhm_lambda=fwhm_nm * 1e-9)
    omega0 = disp.omega_deg
    try:
        support = spectral._default_span(disp, filt)
    except DegenerateDataError:  # the band misses the degenerate wavelength
        return
    grid = SpectralGrid(min(span * support, 0.5 * omega0), 2 * half + 1)
    try:
        jsa = build_jsa(disp, filt, grid)
    except ConfigurationError:  # the span stops short of the support
        return
    om = grid.omegas
    phi = phase_mismatch(om, disp)
    g_pair = filter_amplitude(omega0 + om, filt) * filter_amplitude(omega0 - om, filt)
    expected = np.sinc(phi / np.pi) * np.exp(1j * phi) * g_pair
    assert jsa.amplitude.tobytes() == expected.tobytes()


def test_jsa_phase_parity(paper_disp, top_hat_filter):
    # arg F(W) - arg F(-W) = -delta W L where the sinc factors stay positive
    jsa = build_jsa(paper_disp, top_hat_filter, search_grid(paper_disp, top_hat_filter))
    om = jsa.grid.omegas
    rel = jsa.amplitude * np.conj(jsa.reflected())
    mask = np.abs(rel) > 1e-3
    dphase = np.angle(rel[mask])
    expected = -paper_disp.delta * om[mask] * paper_disp.length_L
    assert np.max(np.abs(expected)) < np.pi  # no wrapping inside the band
    assert_allclose(dphase, expected, atol=1e-10)


def test_jsa_grid_narrower_than_band_rejected(paper_disp, top_hat_filter):
    with pytest.raises(ConfigurationError):
        build_jsa(paper_disp, top_hat_filter, SpectralGrid(omega_max=1e12, n_points=257))
    # the grid must reach the support edge Omega_c, not the far band edge beyond it
    support = search_grid(paper_disp, top_hat_filter).omega_max
    build_jsa(paper_disp, top_hat_filter, SpectralGrid(omega_max=support, n_points=257))
    with pytest.raises(ConfigurationError, match="narrower than the pair spectrum"):
        short = SpectralGrid(omega_max=support * (1 - 1e-9), n_points=257)
        build_jsa(paper_disp, top_hat_filter, short)


def test_jsa_norm_positive(paper_disp, top_hat_filter, gaussian_filter):
    for filt in (top_hat_filter, gaussian_filter):
        jsa = build_jsa(paper_disp, filt, search_grid(paper_disp, filt))
        assert norm_sq(jsa) > 0.0


def test_quadrature_doubling_convergence_smooth_filter(paper_disp, gaussian_filter):
    # trapezoid refinement on the smooth profile: < 1e-6 relative per doubling
    grid = search_grid(paper_disp, gaussian_filter, n_points=4097)
    coarse = build_jsa(paper_disp, gaussian_filter, grid)
    refined = SpectralGrid(grid.omega_max, 2 * grid.n_points - 1)
    fine = build_jsa(paper_disp, gaussian_filter, refined)
    assert fine.grid.n_points == 8193
    rel = abs(norm_sq(fine) - norm_sq(coarse)) / norm_sq(fine)
    assert rel < 1e-6


def test_quadrature_doubling_top_hat_band_edges(paper_disp, top_hat_filter):
    # the band edges are the end nodes: the trapezoid rule converges at O(h^2)
    grids = [search_grid(paper_disp, top_hat_filter, n_points=n) for n in (1025, 2049, 4097, 8193)]
    norms = [norm_sq(build_jsa(paper_disp, top_hat_filter, grid)) for grid in grids]
    rel = abs(norms[3] - norms[2]) / norms[3]
    assert rel < 1e-8
    ratio = (norms[1] - norms[0]) / (norms[2] - norms[1])
    assert 3.5 < ratio < 4.5  # each halving of the step quarters the difference


@given(
    v=st.floats(5e7, 3e8),
    d=st.floats(-2e-3, 2e-3),
    length=st.floats(1e-4, 5e-3),
)
@settings(max_examples=25, deadline=None)
def test_jsa_magnitude_even_without_walkoff(v, d, length):
    disp = WaveguideDispersion(length_L=length, v_te=v, v_tm=v, gvd_D=d, lambda_deg=1555.9e-9)
    filt = SpectralFilter(shape="gaussian", center_lambda=1550e-9, fwhm_lambda=45e-9)
    jsa = build_jsa(disp, filt, search_grid(disp, filt, n_points=513))
    mag = np.abs(jsa.amplitude)
    assert_allclose(mag, mag[::-1], rtol=0.0, atol=1e-15)
