import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import search_grid
from spdcpol import (
    ConfigurationError,
    DegenerateDataError,
    JointSpectralAmplitude,
    SpectralFilter,
    SpectralGrid,
    TwoQubitState,
    WaveguideDispersion,
    build_jsa,
    concurrence,
    optimal_delay,
    overlap_scan,
    post_selected_state,
    visibility_state,
)
from spdcpol import state as state_mod


def _paper_jsa(gvd=-7.9e-4, shape="top_hat"):
    disp = WaveguideDispersion(
        length_L=1.2e-3, v_te=8.98e7, v_tm=9.01e7, gvd_D=gvd, lambda_deg=1555.9e-9
    )
    filt = SpectralFilter(shape=shape, center_lambda=1550e-9, fwhm_lambda=45e-9)
    return disp, build_jsa(disp, filt, search_grid(disp, filt))


def _half_walkoff(disp):
    return disp.delta * disp.length_L / 2.0


def _oracle_overlap(jsa, taus):
    """Direct trapezoid sum over the grid for each delay, no FFT, no np.trapezoid."""
    om = jsa.grid.omegas
    w = np.full(om.size, jsa.grid.step)
    w[0] *= 0.5
    w[-1] *= 0.5
    f = jsa.amplitude
    phase = np.exp(2j * np.asarray(taus, dtype=float)[:, None] * om[None, :])
    num = phase @ (w * f * np.conj(f[::-1]))
    den = np.sum(w * np.abs(f) ** 2)
    return num / den


def _oracle_overlap_mag(jsa, tau):
    return abs(_oracle_overlap(jsa, [tau])[0])


def _overlap_at(jsa, tau):
    return overlap_scan(jsa, tau, 0.0, 1)[0]


# --- overlap_scan -------------------------------------------------------------


def test_overlap_perfect_without_walkoff_or_gvd():
    disp = WaveguideDispersion(length_L=1.2e-3, v_te=9e7, v_tm=9e7, gvd_D=0.0, lambda_deg=1555.9e-9)
    filt = SpectralFilter(shape="top_hat", center_lambda=1550e-9, fwhm_lambda=45e-9)
    jsa = build_jsa(disp, filt, search_grid(disp, filt))
    ov = _overlap_at(jsa, 0.0)
    assert ov == 1.0 + 0.0j
    assert abs(ov) == 1.0


def test_overlap_agrees_with_independent_quadrature():
    _, jsa = _paper_jsa()
    for tau in (0.0, 10e-15, 22.25e-15, -37.5e-15):
        ov = _overlap_at(jsa, tau)
        assert_allclose(abs(ov), _oracle_overlap_mag(jsa, tau), rtol=1e-12)
    scan = overlap_scan(jsa, -200e-15, 4e-15, 101)
    oracle = _oracle_overlap(jsa, -200e-15 + 4e-15 * np.arange(101))
    assert_allclose(scan, oracle, rtol=0.0, atol=1e-12)


def test_overlap_peak_at_half_walkoff_gvd_off():
    # phase of F(W)F*(-W) is exactly -delta W L; it cancels at tau = delta L / 2
    disp, jsa = _paper_jsa(gvd=0.0)
    tau_star = _half_walkoff(disp)
    mags = np.abs(overlap_scan(jsa, -100e-15, 0.125e-15, 2001))
    assert abs(_overlap_at(jsa, tau_star)) >= mags.max() - 1e-12


def test_overlap_zero_norm_rejected():
    grid = SpectralGrid(omega_max=1e13, n_points=33)
    jsa = JointSpectralAmplitude(grid=grid, amplitude=np.zeros(33, dtype=complex))
    with pytest.raises(DegenerateDataError):
        _overlap_at(jsa, 0.0)


def test_overlap_reflection_symmetry():
    # |V(tau)| = |V(delta L - tau)| for symmetric product spectra
    disp, jsa = _paper_jsa()
    pivot = disp.delta * disp.length_L
    for tau in (0.0, 5e-15, 17e-15, 40e-15):
        a = abs(_overlap_at(jsa, tau))
        b = abs(_overlap_at(jsa, pivot - tau))
        assert_allclose(a, b, atol=1e-9)


def test_overlap_magnitude_grid_refinement_stable():
    disp = WaveguideDispersion(
        length_L=1.2e-3, v_te=8.98e7, v_tm=9.01e7, gvd_D=-7.9e-4, lambda_deg=1555.9e-9
    )
    filt = SpectralFilter(shape="gaussian", center_lambda=1550e-9, fwhm_lambda=45e-9)
    coarse = _overlap_at(build_jsa(disp, filt, search_grid(disp, filt, n_points=4097)), 10e-15)
    fine = _overlap_at(build_jsa(disp, filt, search_grid(disp, filt, n_points=8193)), 10e-15)
    assert abs(abs(fine) - abs(coarse)) < 1e-6


@given(
    seed=st.integers(0, 2**32 - 1),
    half=st.integers(1, 600),
    omega_max=st.floats(1e12, 1e14),
    tau0_fs=st.floats(-500.0, 500.0),
    step_fs=st.floats(-2.0, 2.0),
    n=st.integers(1, 400),
)
@settings(max_examples=60, deadline=None)
def test_overlap_scan_matches_direct_sum(seed, half, omega_max, tau0_fs, step_fs, n):
    rng = np.random.default_rng(seed)
    grid = SpectralGrid(omega_max=omega_max, n_points=2 * half + 1)
    amp = rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)
    jsa = JointSpectralAmplitude(grid=grid, amplitude=amp)
    tau0, step = tau0_fs * 1e-15, step_fs * 1e-15
    got = overlap_scan(jsa, tau0, step, n)
    assert got.shape == (n,)
    assert_allclose(got, _oracle_overlap(jsa, tau0 + step * np.arange(n)), rtol=0.0, atol=1e-12)


@given(
    tau_fs=st.floats(-300.0, 300.0),
    gvd=st.floats(-2e-3, 2e-3),
    v_tm=st.floats(8.5e7, 9.5e7),
)
@settings(max_examples=30, deadline=None)
def test_overlap_bounded_by_one(tau_fs, gvd, v_tm):
    disp = WaveguideDispersion(
        length_L=1.2e-3, v_te=8.98e7, v_tm=v_tm, gvd_D=gvd, lambda_deg=1555.9e-9
    )
    filt = SpectralFilter(shape="top_hat", center_lambda=1550e-9, fwhm_lambda=45e-9)
    jsa = build_jsa(disp, filt, search_grid(disp, filt, n_points=1025))
    ov = _overlap_at(jsa, tau_fs * 1e-15)
    assert abs(ov) <= 1.0 + 1e-10


# --- overlap_scan: bitwise against the allocating evaluation --------------------


def _allocating_overlap_scan(jsa, tau0, step, n):
    """overlap_scan as written before its workspace: every intermediate a fresh array."""
    f = jsa.amplitude
    w = np.ones(f.size)
    w[[0, -1]] = 0.5
    norm = np.sum(w * np.abs(f) ** 2)
    if norm <= 0.0:
        raise DegenerateDataError("joint spectral amplitude has zero norm")
    om = jsa.grid.omegas
    c = 0.5 * (n - 1)
    a = w * f * np.conj(jsa.reflected()) * np.exp(2j * om * (tau0 + c * step))
    if n == 1:
        return a.sum(keepdims=True) / norm
    h, theta = (om.size - 1) // 2, 2.0 * jsa.grid.step * step
    p, q = np.arange(om.size) - h, np.arange(n) - c
    chirp = np.exp(-0.5j * theta * (np.arange(1 - om.size, n) + h - c) ** 2)
    size = 1 << (om.size + n - 2).bit_length()
    fft = np.fft
    x = fft.fft(a * np.exp(0.5j * theta * p**2), size)
    conv = fft.ifft(x * fft.fft(chirp, size))[om.size - 1 : om.size - 1 + n]
    return np.exp(0.5j * theta * q**2) * conv / norm


# The pre-chirped samples stay below numpy's 256 KiB temporary-elision
# threshold at 4097 and 8193 points and cross it at 16385; the transforms
# cross it from 8193 points with n = 801. The grids grow, then shrink, the
# workspace.
_BITWISE_GRIDS = (4097, 16385, 8193)


def _bitwise_jsas():
    disp = WaveguideDispersion(
        length_L=1.2e-3, v_te=8.98e7, v_tm=9.01e7, gvd_D=-7.9e-4, lambda_deg=1555.9e-9
    )
    filt = SpectralFilter(shape="gaussian", center_lambda=1550e-9, fwhm_lambda=45e-9)
    grids = [search_grid(disp, filt, n_points=size) for size in _BITWISE_GRIDS]
    return [build_jsa(disp, filt, grid) for grid in grids]


# (tau0, step, n): the point at tau*, the delay-scan window, the delay search
_SCANS = ((22.25e-15, 0.0, 1), (-200e-15, 0.5e-15, 801), (-177.75e-15, 0.1e-15, 4001))


def _assert_bitwise(jsa, tau0, step, n):
    got = overlap_scan(jsa, tau0, step, n)
    assert got.tobytes() == _allocating_overlap_scan(jsa, tau0, step, n).tobytes()
    return got


def test_overlap_scan_is_bitwise_the_allocating_evaluation(monkeypatch):
    monkeypatch.setattr(state_mod, "_WORKSPACE", {})
    for jsa in _bitwise_jsas():
        for scan in _SCANS:
            _assert_bitwise(jsa, *scan)


def test_overlap_scan_results_do_not_share_the_workspace(monkeypatch):
    monkeypatch.setattr(state_mod, "_WORKSPACE", {})
    jsa = _bitwise_jsas()[0]
    first = overlap_scan(jsa, -200e-15, 0.5e-15, 801)
    kept = first.copy()
    first[:] = np.nan
    second = _assert_bitwise(jsa, -200e-15, 0.5e-15, 801)
    assert first is not second and not np.shares_memory(first, second)
    assert second.tobytes() == kept.tobytes()


def test_overlap_scan_raising_part_way_leaves_later_calls_bitwise(monkeypatch):
    monkeypatch.setattr(state_mod, "_WORKSPACE", {})
    small, large, medium = _bitwise_jsas()
    _assert_bitwise(small, -200e-15, 0.5e-15, 801)
    with np.errstate(all="raise"):
        with pytest.raises(FloatingPointError):  # the delay phase overflows
            overlap_scan(large, 1e300, 0.1e-15, 4001)
        with pytest.raises(FloatingPointError):  # the chirp phase overflows
            overlap_scan(large, 0.0, 1e291, 801)
    for jsa in (medium, large, small):
        for scan in _SCANS:
            _assert_bitwise(jsa, *scan)


# The chirps are exponentiated for one sign of their argument and mirrored: even n
# puts d = q - p on half-integers, step 0 makes every chirp argument zero, and grids
# with (N - 1)/2 odd (1027, 4099 points) or n > N shift where the mirror falls.
@given(
    seed=st.integers(0, 2**32 - 1),
    half=st.sampled_from([1, 2, 3, 64, 513, 2049]),
    omega_max=st.floats(1e12, 1e14),
    tau0_fs=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-500.0, 500.0)),
    step_fs=st.one_of(st.sampled_from([0.0, -0.0, 0.1, -0.5]), st.floats(-2.0, 2.0)),
    n=st.one_of(st.sampled_from([1, 2, 3, 800, 801]), st.integers(1, 9000)),
)
@example(seed=1, half=513, omega_max=1e13, tau0_fs=-178.0, step_fs=0.5, n=800)
@example(seed=2, half=2049, omega_max=1e13, tau0_fs=-200.0, step_fs=0.5, n=2)
@example(seed=3, half=2049, omega_max=1e13, tau0_fs=22.25, step_fs=0.0, n=801)
@example(seed=4, half=513, omega_max=1e13, tau0_fs=200.0, step_fs=-0.1, n=4001)
@example(seed=5, half=2, omega_max=1e13, tau0_fs=-1.0, step_fs=0.5, n=12)
@settings(max_examples=80, deadline=None)
def test_overlap_scan_mirrored_chirps_are_bitwise(seed, half, omega_max, tau0_fs, step_fs, n):
    rng = np.random.default_rng(seed)
    grid = SpectralGrid(omega_max=omega_max, n_points=2 * half + 1)
    amp = rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)
    jsa = JointSpectralAmplitude(grid=grid, amplitude=amp)
    _assert_bitwise(jsa, tau0_fs * 1e-15, step_fs * 1e-15, n)


@pytest.mark.parametrize("n", [4001, 4000, 801, 800])
@pytest.mark.parametrize("tau0, step", [(1e300, 0.1e-15), (0.0, 1e291)])
def test_overlap_scan_overflow_raises_as_the_allocating_evaluation(monkeypatch, n, tau0, step):
    monkeypatch.setattr(state_mod, "_WORKSPACE", {})
    large = _bitwise_jsas()[1]
    with np.errstate(all="raise"):
        with pytest.raises(FloatingPointError) as expected:
            _allocating_overlap_scan(large, tau0, step, n)
        with pytest.raises(FloatingPointError) as got:
            overlap_scan(large, tau0, step, n)
    assert str(got.value) == str(expected.value)
    for scan in _SCANS:
        _assert_bitwise(large, *scan)


# --- halving_error ----------------------------------------------------------------


@pytest.mark.parametrize("n_points", [257, 1025])
def test_halving_error_tracks_the_error_against_a_dense_grid(n_points):
    disp = WaveguideDispersion(
        length_L=1.2e-3, v_te=8.98e7, v_tm=9.01e7, gvd_D=-7.9e-4, lambda_deg=1555.9e-9
    )
    filt = SpectralFilter(shape="top_hat", center_lambda=1550e-9, fwhm_lambda=45e-9)
    dense = build_jsa(disp, filt, search_grid(disp, filt, n_points=65537))
    jsa = build_jsa(disp, filt, search_grid(disp, filt, n_points=n_points))
    for tau in (22.25e-15, 100e-15, -150e-15, 200e-15):
        v = _overlap_at(jsa, tau)
        error = abs(abs(v) - abs(_overlap_at(dense, tau)))
        assert_allclose(state_mod.halving_error(jsa, tau, v), error, rtol=0.01)


def test_halving_error_needs_omega_zero_on_every_other_node():
    grid = SpectralGrid(omega_max=1e13, n_points=35)  # nodes 0, 2, .., 34 miss Omega = 0
    jsa = JointSpectralAmplitude(grid=grid, amplitude=np.ones(35, dtype=complex))
    assert state_mod.halving_error(jsa, 0.0, _overlap_at(jsa, 0.0)) is None


# --- optimal_delay --------------------------------------------------------------


def test_optimal_delay_zero_without_walkoff():
    disp = WaveguideDispersion(
        length_L=1.2e-3, v_te=9e7, v_tm=9e7, gvd_D=-7.9e-4, lambda_deg=1555.9e-9
    )
    filt = SpectralFilter(shape="top_hat", center_lambda=1550e-9, fwhm_lambda=45e-9)
    jsa = build_jsa(disp, filt, search_grid(disp, filt))
    assert optimal_delay(jsa, 0.0) == 0.0


def test_optimal_delay_half_walkoff_gvd_off():
    disp, jsa = _paper_jsa(gvd=0.0)
    tau_star = optimal_delay(jsa, _half_walkoff(disp))
    assert abs(tau_star - _half_walkoff(disp)) < 0.1e-15
    assert_allclose(tau_star * 1e15, 22.25, atol=0.1)


def test_optimal_delay_full_parameters_against_dense_scan():
    disp, jsa = _paper_jsa()
    tau_star = optimal_delay(jsa, _half_walkoff(disp))
    assert 20e-15 <= tau_star <= 35e-15
    # independent dense-scan oracle around the found, 0.02 fs resolution
    taus = np.arange(15e-15, 30e-15, 0.02e-15)
    oracle = taus[np.argmax([_oracle_overlap_mag(jsa, t) for t in taus])]
    assert abs(tau_star - oracle) < 0.1e-15


def test_optimal_delay_nonfinite_center():
    _, jsa = _paper_jsa()
    for center in (np.nan, np.inf):
        with pytest.raises(ConfigurationError):
            optimal_delay(jsa, center)


def _long_guide_jsa():
    disp = WaveguideDispersion(
        length_L=12e-3, v_te=8.98e7, v_tm=9.01e7, gvd_D=-7.9e-4, lambda_deg=1555.9e-9
    )
    filt = SpectralFilter(shape="top_hat", center_lambda=1555.9e-9, fwhm_lambda=20e-9)
    return disp, build_jsa(disp, filt, search_grid(disp, filt))


def test_optimal_delay_long_guide_follows_walkoff():
    # delta*L/2 = 222.47 fs lies outside any fixed +-200 fs window
    disp, jsa = _long_guide_jsa()
    tau_star = optimal_delay(jsa, _half_walkoff(disp))
    assert abs(tau_star * 1e15 - 222.47) <= 0.05


def test_optimal_delay_edge_optimum_raises():
    # centered on 0 the window ends at 200 fs, where |V_int| is still rising
    _, jsa = _long_guide_jsa()
    with pytest.raises(DegenerateDataError, match="edge"):
        optimal_delay(jsa, 0.0)


# --- post_selected_state ---------------------------------------------------------


def test_full_overlap_gives_psi_plus():
    rho = post_selected_state(1.0 + 0.0j).rho
    vec = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    assert_allclose(rho, np.outer(vec, vec), atol=1e-15)


def test_zero_overlap_gives_incoherent_mixture():
    rho = post_selected_state(0.0).rho
    assert_allclose(rho, np.diag([0.0, 0.5, 0.5, 0.0]), atol=1e-15)


def test_overlap_above_one_rejected():
    with pytest.raises(ValueError):
        post_selected_state(1.0 + 1e-6)


def test_splitter_phase_rotates_coherence():
    rho = post_selected_state(1.0, phi_bs=np.pi / 2).rho
    assert_allclose(rho[1, 2], 0.5j, atol=1e-15)


@given(st.complex_numbers(max_magnitude=1.0, allow_infinity=False, allow_nan=False))
@example(0.5)
@example(0.9)
@example(0.99999)
@example(0.99999998)
@example(1.0)
@example(1.014257788666664e-14)  # np.linalg.svd of R loses this split entirely
@settings(max_examples=200, deadline=None)
def test_post_selected_state_valid_and_concurrence_matches(v):
    state = post_selected_state(v)  # constructor enforces Hermitian/trace/PSD
    assert_allclose(concurrence(state), abs(v), rtol=0.0, atol=1e-14)


def test_state_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        TwoQubitState(rho=np.eye(4, dtype=complex))  # trace 4
    bad = np.diag([0.5, 0.5, 0.5, -0.5]).astype(complex)
    with pytest.raises(ValueError):
        TwoQubitState(rho=bad)  # negative eigenvalue
    skew = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    skew[0, 1] = 0.1
    with pytest.raises(ValueError):
        TwoQubitState(rho=skew)  # not Hermitian


# --- visibility_state -------------------------------------------------------------


def test_visibility_state_populations():
    rho = visibility_state(0.80, 0.77).rho
    assert_allclose(np.diag(rho).real, [0.05, 0.45, 0.45, 0.05], atol=1e-15)
    assert_allclose(rho[1, 2], 0.385, atol=1e-15)


def test_visibility_state_positivity_bound():
    with pytest.raises(ValueError):
        visibility_state(0.0, 0.6)  # needs v_d <= (1+v_z)/2 = 0.5


# --- concurrence -------------------------------------------------------------------


def _oracle_concurrence(rho):
    """Square-root form: eigenvalues of sqrt(rho) rho~ sqrt(rho)."""
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    yy = np.kron(sy, sy)
    w, u = np.linalg.eigh(rho)
    sqrt_rho = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    m = sqrt_rho @ (yy @ rho.conj() @ yy) @ sqrt_rho
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(m), 0.0, None))
    lam.sort()
    return max(0.0, lam[3] - lam[2] - lam[1] - lam[0])


def _x_state_concurrence(rho):
    """Closed form for X-states: 2 max(0, |rho_HV,VH| - sqrt(rho_HH rho_VV),
    |rho_HH,VV| - sqrt(rho_HV rho_VH))."""
    p = np.diag(rho).real
    return 2.0 * max(
        0.0, abs(rho[1, 2]) - np.sqrt(p[0] * p[3]), abs(rho[0, 3]) - np.sqrt(p[1] * p[2])
    )


def test_concurrence_matches_x_state_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        v_z = rng.uniform(-1, 1)
        v_d = rng.uniform(0, 0.5 * (1 + v_z))
        state = visibility_state(v_z, v_d, phi_bs=rng.uniform(0, 2 * np.pi))
        assert_allclose(concurrence(state), _x_state_concurrence(state.rho), rtol=0.0, atol=1e-14)


def test_concurrence_maximally_entangled():
    assert_allclose(concurrence(post_selected_state(1.0)), 1.0, atol=1e-12)


def test_concurrence_separable_mixture():
    assert concurrence(post_selected_state(0.0)) == 0.0


def test_concurrence_partial_coherence_oracle():
    state = post_selected_state(0.91)
    assert_allclose(concurrence(state), 0.91, atol=1e-12)
    assert_allclose(_oracle_concurrence(state.rho), 0.91, atol=1e-12)


def test_concurrence_matches_sqrt_oracle_on_random_states():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = (rng.uniform(0, 1)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        state = post_selected_state(v, phi_bs=rng.uniform(0, 2 * np.pi))
        assert_allclose(concurrence(state), _oracle_concurrence(state.rho), atol=1e-10)
    for _ in range(50):
        v_z = rng.uniform(-1, 1)
        v_d = rng.uniform(0, 0.5 * (1 + v_z))
        state = visibility_state(v_z, v_d)
        assert_allclose(concurrence(state), _oracle_concurrence(state.rho), atol=1e-10)


def test_state_keeps_a_read_only_copy_of_rho():
    rho = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    state = TwoQubitState(rho=rho)
    rho[0, 0] = rho[3, 3] = 1.0  # the caller's array, not the state's
    assert_allclose(np.diag(state.rho).real, 0.25)
    with pytest.raises(ValueError):
        state.rho[3, 3] = -0.5
