import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import random_density_matrix
from spdcpol import (
    ConfigurationError,
    DegenerateDataError,
    canonical_settings,
    chsh_arm_angles,
    chsh_estimate,
    chsh_table,
    coincidence_probs,
    fit_fringe,
    post_selected_state,
    visibility_state,
)
from spdcpol.polarimetry import _design_pinv, check_theta2_grid

DEG = np.pi / 180.0


# --- coincidence_probs -----------------------------------------------------------


def test_parallel_analyzers_on_ideal_state():
    assert_allclose(coincidence_probs(post_selected_state(1.0).rho, 0.0, 0.0), 0.5, atol=1e-15)


def test_crossed_analyzers_null():
    p = coincidence_probs(post_selected_state(1.0).rho, 0.0, 90.0 * DEG)
    assert abs(p) < 1e-15


def test_ideal_fringe_law_on_grid():
    # cos^2(t1 + t2) / 2 over a 5 x 30 degree grid, one broadcast call
    rho = post_selected_state(1.0).rho
    t1 = np.arange(0.0, 360.0, 5.0)[:, None] * DEG
    t2 = np.arange(0.0, 360.0, 30.0)[None, :] * DEG
    probs = coincidence_probs(rho, t1, t2)
    assert probs.shape == (72, 12)
    assert np.max(np.abs(probs - 0.5 * np.cos(t1 + t2) ** 2)) < 1e-12


def _oracle_prob(rho, t1, t2):
    """Scalar reference: <p1 p2| rho |p1 p2> as one mat-vec product per setting."""
    c1, s1, c2, s2 = np.cos(t1), np.sin(t1), np.cos(t2), np.sin(t2)
    v = np.array([c1 * s2, c1 * c2, -s1 * s2, -s1 * c2])
    return float(np.real(v @ rho @ v))


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.lists(st.integers(1, 4), max_size=3),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_coincidence_probs_matches_scalar_oracle(seed, shape, data):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng)

    def operand_shape():
        # a broadcast-compatible operand: drop leading axes, collapse others to 1
        keep = data.draw(st.lists(st.booleans(), min_size=len(shape), max_size=len(shape)))
        lead = data.draw(st.integers(0, len(shape)))
        return tuple(n if k else 1 for n, k in zip(shape, keep))[lead:]

    t1 = rng.uniform(-4 * np.pi, 4 * np.pi, size=operand_shape())
    t2 = rng.uniform(-4 * np.pi, 4 * np.pi, size=operand_shape())
    probs = coincidence_probs(rho, t1, t2)
    assert probs.shape == np.broadcast_shapes(t1.shape, t2.shape)
    b1, b2 = np.broadcast_arrays(t1, t2)
    for idx in np.ndindex(probs.shape):
        assert abs(probs[idx] - _oracle_prob(rho, b1[idx], b2[idx])) <= 1e-15


def test_diagonal_projection_reads_coherence():
    # (1 - c)/4 at t1 = t2 = 45 deg for the single-coherence X-state
    for c in (0.0, 0.5, 0.91, 1.0):
        rho = post_selected_state(c).rho
        p = coincidence_probs(rho, 45.0 * DEG, 45.0 * DEG)
        assert_allclose(p, (1.0 - c) / 4.0, atol=1e-12)


def test_probability_periodic_in_half_turn():
    rho = post_selected_state(0.7).rho
    rng = np.random.default_rng(3)
    for _ in range(25):
        t1, t2 = rng.uniform(0, 2 * np.pi, size=2)
        p = coincidence_probs(rho, t1, t2)
        assert_allclose(coincidence_probs(rho, t1 + np.pi, t2), p, atol=1e-12)
        assert_allclose(coincidence_probs(rho, t1, t2 + np.pi), p, atol=1e-12)


@given(t1=st.floats(-4 * np.pi, 4 * np.pi), shift=st.floats(-np.pi, np.pi))
@settings(max_examples=100, deadline=None)
def test_ideal_probability_depends_on_angle_sum(t1, shift):
    rho = post_selected_state(1.0).rho
    t2 = 0.3
    a = coincidence_probs(rho, t1, t2)
    b = coincidence_probs(rho, t1 + shift, t2 - shift)
    assert abs(a - b) < 1e-12


# --- fringes ----------------------------------------------------------------------


def _full_turn(step_deg=10.0):
    return np.arange(0.0, 360.0 + step_deg / 2, step_deg) * DEG


def _model_fringe(rho, theta1, grid):
    """Model fringe at theta1 over the theta2 grid and its fitted visibility."""
    probs = coincidence_probs(rho, theta1, grid)
    return probs, fit_fringe(grid, probs)


def test_ideal_fringe_scan():
    grid = _full_turn()
    probs, vis = _model_fringe(post_selected_state(1.0).rho, 0.0, grid)
    assert_allclose(probs, 0.5 * np.cos(grid) ** 2, atol=1e-12)
    assert_allclose(vis, 1.0, atol=1e-9)


def test_fringe_visibility_reads_coherence_in_diagonal_basis():
    rho = post_selected_state(0.91).rho
    _, vis = _model_fringe(rho, 45.0 * DEG, _full_turn())
    assert_allclose(vis, 0.91, atol=1e-9)


def test_fringe_visibility_insensitive_in_hv_basis():
    rho = post_selected_state(0.91).rho
    _, vis = _model_fringe(rho, 0.0, _full_turn())
    assert_allclose(vis, 1.0, atol=1e-9)


def test_fringe_grid_rules():
    with pytest.raises(ConfigurationError):
        check_theta2_grid(np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ConfigurationError):
        check_theta2_grid(np.linspace(0.0, np.pi, 10))


def test_max_min_estimator_agrees_on_noiseless_fringe():
    rho = post_selected_state(0.8).rho
    probs, vis = _model_fringe(rho, 45.0 * DEG, _full_turn(step_deg=5.0))
    # 5 deg grid hits the extrema of a 90-degree-period fringe exactly
    hi, lo = probs.max(), probs.min()
    assert_allclose((hi - lo) / (hi + lo), vis, atol=1e-9)


def test_fit_fringe_recovers_planted_sinusoid():
    theta = _full_turn(step_deg=7.5)
    y = 3.0 + 1.2 * np.cos(2 * theta + 0.4)
    vis = fit_fringe(theta, y)
    assert_allclose(vis, 0.4, atol=1e-10)
    # one fringe: a 0-d value of the batch's dtype, not a Python float
    assert vis.shape == () and vis.dtype == np.float64


def _oracle_fit(theta, row):
    """Per-row reference: the visibility from np.linalg.lstsq on the design."""
    design = np.column_stack([np.ones_like(theta), np.cos(2 * theta), np.sin(2 * theta)])
    (a, p, q), *_ = np.linalg.lstsq(design, row, rcond=None)
    return np.hypot(p, q) / a


@given(
    seed=st.integers(0, 2**32 - 1),
    lead=st.lists(st.integers(1, 5), max_size=3),
    n=st.integers(4, 73),
)
@settings(max_examples=200, deadline=None)
def test_batched_fit_matches_per_row_lstsq(seed, lead, n):
    rng = np.random.default_rng(seed)
    theta = np.linspace(0.0, 2 * np.pi, n)
    counts = rng.integers(0, rng.integers(5, 10_000), size=(*lead, n))
    if n == 5:  # a 90-degree step: every 2 theta is 0 or pi, so the design has rank 2
        with pytest.raises(DegenerateDataError, match="singular"):
            fit_fringe(theta, counts)
        return
    vis = fit_fringe(theta, counts)
    assert vis.shape == tuple(lead)
    for idx in np.ndindex(*lead):
        assert abs(vis[idx] - _oracle_fit(theta, counts[idx].astype(float))) <= 1e-12


def test_batched_fit_rows_do_not_depend_on_the_batch():
    rng = np.random.default_rng(8)
    theta = _full_turn(step_deg=10.0)
    counts = rng.poisson(300 * (1 + 0.8 * np.cos(2 * theta)), size=(300, theta.size))
    whole = fit_fringe(theta, counts)
    for size in (1, 7, 256):
        parts = [fit_fringe(theta, counts[i : i + size]) for i in range(0, 300, size)]
        assert np.array_equal(np.concatenate(parts), whole)
    assert all(fit_fringe(theta, row) == v for row, v in zip(counts, whole))


def test_kept_design_inverse_gives_each_row_the_fit_of_a_fresh_inverse():
    # alternating grids: each fit after the first on a grid reuses or replaces the kept inverse
    rng = np.random.default_rng(21)
    grids = [_full_turn(step_deg=10.0), _full_turn(step_deg=7.5), np.linspace(-np.pi, np.pi, 37)]
    for theta in [*grids, *grids, grids[0]]:
        counts = rng.poisson(200 * (1 + 0.7 * np.cos(2 * theta + 0.3)), size=(5, theta.size))
        fresh = _design_pinv.__wrapped__(theta.tobytes())  # built anew, bypassing the cache
        a, p, q = np.moveaxis(np.einsum("...n,kn->...k", counts, fresh), -1, 0)
        assert np.array_equal(fit_fringe(theta, counts), np.hypot(p, q) / a)


@pytest.mark.parametrize("bad_row", [0, 5, 11])
def test_batched_fit_rejects_a_degenerate_row_anywhere(bad_row):
    theta = _full_turn(step_deg=10.0)
    rows = np.tile(100.0 * (1 + 0.5 * np.cos(2 * theta)), (12, 1))
    rows[bad_row] = 0.0  # offset 0
    with pytest.raises(DegenerateDataError):
        fit_fringe(theta, rows)
    rows[bad_row] = -1.0 - 0.5 * np.cos(2 * theta)  # negative offset
    with pytest.raises(DegenerateDataError):
        fit_fringe(theta, rows.reshape(3, 4, -1))


def test_fit_rejects_mismatched_angles():
    with pytest.raises(ConfigurationError):
        fit_fringe(_full_turn(step_deg=10.0), np.ones((4, 5)))


# --- CHSH tables: correlation fractions ------------------------------------------------


def _correlation(rho, theta1, theta2):
    """E at analyzer angles (theta1, theta2): block 0 of the table with t1 = theta1, t2 = theta2."""
    table = chsh_table(rho, [[theta1, 0.0, theta2, 0.0]])
    return float(chsh_estimate(table)[1][0, 0])


def _signed_s(rho, settings):
    """Signed CHSH sum of the table of one setting (t1, t1', t2, t2')."""
    return float(chsh_estimate(chsh_table(rho, [settings]))[0][0])


def _chsh_s(rho, settings):
    """CHSH parameter |S| of one table."""
    return abs(_signed_s(rho, settings))


def _s_curve(rho, theta_grid):
    """Signed CHSH sums along the canonical family (0, -2t, t, 3t)."""
    return chsh_estimate(chsh_table(rho, canonical_settings(theta_grid)))[0]


def test_correlation_ideal_values():
    rho = post_selected_state(1.0).rho
    assert_allclose(_correlation(rho, 0.0, 0.0), 1.0, atol=1e-12)
    assert abs(_correlation(rho, 0.0, 45.0 * DEG)) < 1e-12


def test_correlation_closed_form_random_angles():
    # E = cos 2t1 cos 2t2 - c sin 2t1 sin 2t2 for the single-coherence X-state
    rng = np.random.default_rng(11)
    for _ in range(100):
        c = rng.uniform(0.0, 1.0)
        t1, t2 = rng.uniform(0.0, 2 * np.pi, size=2)
        rho = post_selected_state(c).rho
        expected = np.cos(2 * t1) * np.cos(2 * t2) - c * np.sin(2 * t1) * np.sin(2 * t2)
        assert_allclose(_correlation(rho, t1, t2), expected, atol=1e-9)


def test_correlation_two_visibility_closed_form():
    rng = np.random.default_rng(12)
    rho = visibility_state(0.80, 0.77).rho
    for _ in range(50):
        t1, t2 = rng.uniform(0.0, 2 * np.pi, size=2)
        expected = 0.80 * np.cos(2 * t1) * np.cos(2 * t2) - 0.77 * np.sin(2 * t1) * np.sin(2 * t2)
        assert_allclose(_correlation(rho, t1, t2), expected, atol=1e-9)


def test_correlation_bounded_random_states():
    rng = np.random.default_rng(21)
    for _ in range(500):
        rho = random_density_matrix(rng)
        t1, t2 = rng.uniform(0.0, 2 * np.pi, size=2)
        e = _correlation(rho, t1, t2)
        assert -1.0 - 1e-9 <= e <= 1.0 + 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_correlation_rejects_nonfinite_angle(bad):
    # chsh_table rejects the settings before any table is built
    for t1, t2 in ((bad, 0.0), (0.0, bad)):
        with pytest.raises(ValueError, match="finite"):
            chsh_table(post_selected_state(1.0).rho, [[t1, 0.0, t2, 0.0]])


# --- CHSH -------------------------------------------------------------------------


@given(t=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_canonical_settings_rows_are_the_family_bit_for_bit(t):
    rows = canonical_settings(t)
    assert rows.shape == (len(t), 4)
    assert rows.tolist() == [[0.0, -2.0 * x, x, 3.0 * x] for x in t]
    assert canonical_settings(t[0]).tolist() == rows[0].tolist()  # a scalar gives one row
    assert canonical_settings(np.reshape(t * 2, (2, -1))).shape == (2, len(t), 4)


def test_chsh_arm_angles_layout_in_each_unit():
    settings = [[10.0, -35.0, -22.5, 22.0], [0.0, -45.0, 22.5, 67.5]]
    arm1, arm2 = chsh_arm_angles(settings, 90.0)
    assert arm1.tolist() == [[10.0, 100.0, -35.0, 55.0], [0.0, 90.0, -45.0, 45.0]]
    assert arm2.tolist() == [[-22.5, 67.5, 22.0, 112.0], [22.5, 112.5, 67.5, 157.5]]
    rad1, rad2 = chsh_arm_angles(np.radians(settings), np.pi / 2)
    assert_allclose(np.degrees(rad1), arm1, atol=1e-12)
    assert_allclose(np.degrees(rad2), arm2, atol=1e-12)


def _canonical_225():
    return canonical_settings(22.5 * DEG)


def test_chsh_maximal_violation_settings():
    s = _canonical_225()
    assert_allclose(np.degrees(s), [0, -45, 22.5, 67.5])
    assert_allclose(_chsh_s(post_selected_state(1.0).rho, s), 2.0 * np.sqrt(2.0), atol=1e-9)


def test_chsh_product_state_respects_classical_bound():
    product = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
    assert _chsh_s(product, _canonical_225()) <= 2.0 + 1e-12


def test_chsh_coherence_scaling():
    # S = sqrt(2) (1 + c) at the maximal-violation settings
    for c in (0.0, 0.5, 0.91):
        rho = post_selected_state(c).rho
        assert_allclose(_chsh_s(rho, _canonical_225()), np.sqrt(2.0) * (1.0 + c), atol=1e-9)


@given(
    mag=st.floats(0.0, 1.0),
    arg=st.floats(0.0, 2 * np.pi),
    phi=st.floats(0.0, 2 * np.pi),
)
@settings(max_examples=100, deadline=None)
def test_chsh_complex_coherence_identity(mag, arg, phi):
    # S at the canonical 22.5 deg settings is sqrt(2) (1 + Re(v e^{i phi}))
    v = mag * np.exp(1j * arg)
    rho = post_selected_state(v, phi_bs=phi).rho
    expected = abs(np.sqrt(2.0) * (1.0 + (v * np.exp(1j * phi)).real))
    assert_allclose(_chsh_s(rho, _canonical_225()), expected, atol=1e-9)


def test_tsirelson_bound_random_states_and_settings():
    rng = np.random.default_rng(31)
    bound = 2.0 * np.sqrt(2.0) + 1e-9
    for _ in range(1000):
        rho = random_density_matrix(rng)
        t = rng.uniform(0.0, 2 * np.pi, size=4)
        s = _chsh_s(rho, t)
        assert s <= bound


# --- s_curve -----------------------------------------------------------------------


def test_s_curve_matches_ideal_identity():
    thetas = np.arange(0.0, 360.0 + 0.5, 1.0) * DEG
    curve = _s_curve(post_selected_state(1.0).rho, thetas)
    expected = 3.0 * np.cos(2 * thetas) - np.cos(6 * thetas)
    assert np.max(np.abs(curve - expected)) < 1e-9


def test_s_curve_landmarks():
    rho = post_selected_state(1.0).rho
    assert_allclose(_s_curve(rho, [22.5 * DEG])[0], 2.0 * np.sqrt(2.0), atol=1e-9)
    assert_allclose(_s_curve(rho, [0.0])[0], 2.0, atol=1e-12)


def test_s_curve_signed_has_negative_lobes():
    thetas = np.arange(0.0, 180.0, 2.0) * DEG
    curve = _s_curve(post_selected_state(1.0).rho, thetas)
    assert curve.min() < -2.0  # the signed sum dips to -2 sqrt 2


def test_s_curve_equals_pointwise_chsh_signed():
    rng = np.random.default_rng(41)
    thetas = rng.uniform(-np.pi, np.pi, size=25)
    for _ in range(20):
        rho = random_density_matrix(rng)
        pointwise = [_signed_s(rho, canonical_settings(t)) for t in thetas]
        assert_allclose(_s_curve(rho, thetas), pointwise, rtol=0.0, atol=1e-12)


def test_signed_vs_absolute():
    rho = post_selected_state(1.0).rho
    settings_neg = canonical_settings(112.5 * DEG)
    assert _signed_s(rho, settings_neg) < 0
    assert_allclose(_chsh_s(rho, settings_neg), -_signed_s(rho, settings_neg), atol=1e-12)


@pytest.mark.parametrize("shape", [(4,), (16,), (2, 8), (4, 4, 3), (3, 16)])
def test_chsh_estimate_rejects_tables_not_4x4(shape):
    with pytest.raises(ValueError, match="4x4"):
        chsh_estimate(np.ones(shape))


# (C_pp, C_oo, C_op, C_po) cells of E(t1, t2), E(t1, t2'), E(t1', t2), E(t1', t2')
_BLOCKS = (
    ((0, 0), (1, 1), (1, 0), (0, 1)),
    ((0, 2), (1, 3), (1, 2), (0, 3)),
    ((2, 0), (3, 1), (3, 0), (2, 1)),
    ((2, 2), (3, 3), (3, 2), (2, 3)),
)


def test_chsh_estimate_sums_each_block_left_to_right():
    # every record's model S is this expression, so its order is part of the output bytes
    rng = np.random.default_rng(51)
    tables = rng.uniform(0.0, 1.0, size=(200, 4, 4))
    s, e, same, denom = chsh_estimate(tables)
    for k, table in enumerate(tables):
        cells = [[float(table[cell]) for cell in block] for block in _BLOCKS]
        assert same[:, k].tolist() == [pp + oo for pp, oo, _, _ in cells]
        assert denom[:, k].tolist() == [pp + oo + op + po for pp, oo, op, po in cells]
        want = [(pp + oo - op - po) / (pp + oo + op + po) for pp, oo, op, po in cells]
        assert e[:, k].tolist() == want
        assert float(s[k]) == want[0] - want[1] + want[2] + want[3]
