import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spdcpol import (
    ConfigurationError,
    DegenerateDataError,
    DetectorModel,
    accidental_rate,
    canonical_settings,
    chsh_estimate,
    chsh_from_counts,
    chsh_table,
    coincidence_probs,
    efficiency_budget,
    fit_fringe,
    mean_counts,
    measure_accidentals,
    poisson_counts,
    post_selected_state,
    subtract_accidentals,
    visibility_state,
)
from spdcpol.config import load_scenario

DEG = np.pi / 180.0


def _fringe_model(**overrides):
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


def _budget_model():
    # 20 ns gates, the configuration the efficiency estimate belongs to
    return _fringe_model(gate_width=20e-9, singles_rate_1=600.0, singles_rate_2=500.0)


# --- accidental_rate -----------------------------------------------------------
# hand value: (3550 * 6200 / 1e5) * min(1, 2*3/100) = 220.1 * 0.06 = 13.206 /s


def test_accidental_rate_hand_value():
    assert_allclose(accidental_rate(_fringe_model()), 13.206, rtol=1e-12)


def test_accidental_rate_no_singles():
    assert accidental_rate(_fringe_model(singles_rate_1=0.0)) == 0.0


def test_accidental_window_factor_saturates():
    model = _fringe_model(gate_width=5e-9)  # 2*tau_c/tau_g = 1.2 -> clamp at 1
    assert_allclose(accidental_rate(model), 3550.0 * 6200.0 / 1e5, rtol=1e-12)


def test_accidental_scaling_with_calibration():
    assert_allclose(accidental_rate(_fringe_model(accidental_calibration=0.026)), 0.343356)


def test_detector_model_validation():
    with pytest.raises(ValueError):
        _fringe_model(trigger_rate=0.0)
    with pytest.raises(ValueError):
        _fringe_model(efficiency_1=1.2)
    with pytest.raises(ValueError):
        _fringe_model(coincidence_window=-1e-9)


@pytest.mark.parametrize(
    "field, message",
    [
        ("trigger_rate", "trigger_rate must be positive, got nan"),
        ("gate_width", "gate_width must be positive, got nan"),
        ("coincidence_window", "coincidence_window must be positive, got nan"),
        ("efficiency_1", r"detector efficiency nan outside \[0, 1\]"),
        ("singles_rate_1", "singles rates must be nonnegative"),
        ("singles_rate_2", "singles rates must be nonnegative"),
        ("accidental_calibration", "accidental_calibration must be nonnegative"),
    ],
)
def test_detector_model_rejects_nan(field, message):
    with pytest.raises(ValueError, match=message):
        _fringe_model(**{field: np.nan})


# --- mean_counts: (pair_rate * p + R_acc) * T ------------------------------------


def _ideal_probs(theta2):
    return coincidence_probs(post_selected_state(1.0), 0.0, theta2)


def test_expected_counts_fringe_null():
    p = _ideal_probs(90.0 * DEG)
    assert mean_counts(p, _fringe_model(accidental_calibration=0.0), 6.0, 10.0) < 1e-12
    assert_allclose(mean_counts(p, _fringe_model(), 6.0, 10.0), 13.206 * 10.0, rtol=1e-12)


def test_expected_counts_fringe_maximum():
    means = mean_counts(_ideal_probs(0.0), _fringe_model(accidental_calibration=0.0), 6.0, 10.0)
    assert_allclose(means, 3.0 * 10.0, atol=1e-12)


def test_expected_counts_linear_in_time():
    p = _ideal_probs(np.arange(0.0, 360.0, 10.0) * DEG)
    model = _fringe_model()
    doubled = mean_counts(p, model, 6.0, 20.0)
    assert_allclose(doubled, 2.0 * mean_counts(p, model, 6.0, 10.0), rtol=1e-15)


def test_expected_counts_rejects_negatives():
    p = _ideal_probs(0.0)
    with pytest.raises(ValueError):
        mean_counts(p, _fringe_model(), -1.0, 1.0)
    with pytest.raises(ValueError):
        mean_counts(p, _fringe_model(), 1.0, -1.0)


# --- poisson_counts ------------------------------------------------------------------


def test_simulate_counts_seed_deterministic():
    means = (np.array([0.0, 1.0, 2.5, 3.0]) + 0.3) * 60.0
    a = poisson_counts(means, seed=42)
    b = poisson_counts(means, seed=42)
    assert np.array_equal(a, b)
    c = poisson_counts(means, seed=43)
    assert not np.array_equal(a, c)


def test_simulate_counts_zero_mean():
    for seed in range(20):
        assert np.all(poisson_counts(np.zeros(8), seed=seed) == 0)


def test_simulate_counts_tail_bound():
    # mean 1e6: essentially every draw inside 5 sigma = 5000
    misses = sum(abs(int(poisson_counts([1e6], seed=s)[0]) - 10**6) > 5000 for s in range(200))
    assert misses <= 1


def test_simulate_counts_poisson_variance():
    draws = np.array([poisson_counts([9.0], seed=s)[0] for s in range(10_000)])
    assert abs(draws.var() - 9.0) / 9.0 < 0.10


# --- measure_accidentals --------------------------------------------------------------


def test_measure_accidentals_zero_calibration():
    model = _fringe_model(accidental_calibration=0.0)
    assert np.all(measure_accidentals(model, 100.0, seed=1, n_settings=16) == 0)


def test_measure_accidentals_mean():
    model = _fringe_model()
    draws = measure_accidentals(model, 10.0, seed=5, n_settings=20_000)
    assert_allclose(draws.mean(), 132.06, rtol=0.02)


def test_measure_accidentals_is_the_constant_mean_draw():
    # same stream as one Poisson call at the scalar mean with size=n
    model = _fringe_model()
    mean = accidental_rate(model) * 60.0
    expected = np.random.default_rng(7).poisson(mean, size=37)
    assert np.array_equal(measure_accidentals(model, 60.0, seed=7, n_settings=37), expected)
    assert np.array_equal(poisson_counts(np.full(37, mean), seed=7), expected)


def test_measure_accidentals_draws_what_a_full_array_of_means_draws():
    # the scalar-mean draw against poisson_counts(np.full(shape, mean), ...), bit for bit
    model = _fringe_model()
    mean = accidental_rate(model) * 60.0
    for shape in (37, (256, 37), (3, 4, 4)):
        got = measure_accidentals(model, 60.0, seed=11, n_settings=shape)
        assert np.array_equal(got, poisson_counts(np.full(shape, mean), seed=11))
    ours, old = np.random.default_rng(12), np.random.default_rng(12)
    for rows in (256, 256, 7):  # one stream drawn in blocks
        got = measure_accidentals(model, 60.0, ours, (rows, 37))
        assert np.array_equal(got, poisson_counts(np.full((rows, 37), mean), old))


def test_measure_accidentals_undrawable_mean_is_degenerate_data():
    with pytest.raises(DegenerateDataError, match="cannot draw Poisson counts"):
        measure_accidentals(_fringe_model(), 1e300, seed=1, n_settings=4)


def test_measure_accidentals_independent_seeds():
    model = _fringe_model()
    a = measure_accidentals(model, 10.0, seed=1, n_settings=1000)
    b = measure_accidentals(model, 10.0, seed=2, n_settings=1000)
    assert not np.array_equal(a, b)
    assert abs(a.mean() - b.mean()) < 10.0


# --- subtract_accidentals ---------------------------------------------------------------


def test_subtract_identity_for_zero_accidentals():
    raw = np.array([5, 0, 3, 12])
    out = subtract_accidentals(raw, np.zeros(4))
    assert np.array_equal(out, raw.astype(float))


def test_subtract_preserves_negative_values():
    out = subtract_accidentals([2, 1], [5, 0])
    assert np.array_equal(out, [-3.0, 1.0])


def test_subtract_length_mismatch():
    with pytest.raises(ConfigurationError):
        subtract_accidentals([1, 2, 3], [1, 2])


def test_subtraction_recovers_underlying_visibility():
    # fringe a(1 + 0.98 cos) with a = 0.25 plus flat accidental level
    # A = 0.1125 * (Max + Min) = 0.05625: raw contrast is exactly
    # 0.98 / 1.225 = 0.80, and subtraction restores 0.98
    theta = np.arange(0.0, 360.0 + 5.0, 10.0) * DEG
    truth = 0.25 * (1.0 + 0.98 * np.cos(2 * theta))
    accidental = np.full_like(truth, 0.05625)
    raw = truth + accidental
    assert_allclose(fit_fringe(theta, raw).visibility, 0.80, atol=1e-12)
    corrected = subtract_accidentals(raw, accidental)
    assert_allclose(fit_fringe(theta, corrected).visibility, 0.98, atol=1e-12)


def test_subtraction_then_fit_unbiased_over_ensemble():
    # Monte-Carlo: mean fitted visibility lands within one single-run sigma
    state = post_selected_state(0.91)
    model = _fringe_model(accidental_calibration=0.026)
    theta = np.arange(0.0, 360.0 + 5.0, 10.0) * DEG
    from spdcpol import fringe_scan

    probs = fringe_scan(state, 45.0 * DEG, theta).probabilities
    means = mean_counts(probs, model, 6.0, 60.0)
    fitted = []
    for seed in range(500):
        raw = poisson_counts(means, seed=seed)
        acc_meas = measure_accidentals(model, 60.0, seed=10_000 + seed, n_settings=theta.size)
        corrected = subtract_accidentals(raw, acc_meas)
        fitted.append(fit_fringe(theta, corrected).visibility)
    fitted = np.asarray(fitted)
    assert abs(fitted.mean() - 0.91) < fitted.std()


# --- chsh_from_counts --------------------------------------------------------------------


def _noiseless_table(state, theta=22.5 * DEG, pair_rate=6.0, t_int=60.0, alpha=0.0):
    model = _fringe_model(accidental_calibration=alpha)
    probs = chsh_table(state, canonical_settings([theta]))
    return mean_counts(probs, model, pair_rate, t_int)[0]


def test_chsh_from_counts_matches_model_on_noiseless_tables():
    from conftest import random_density_matrix
    from spdcpol import TwoQubitState

    rng = np.random.default_rng(17)
    states = [post_selected_state(1.0), post_selected_state(0.91), visibility_state(0.8, 0.77)]
    states += [TwoQubitState(rho=random_density_matrix(rng)) for _ in range(10)]
    for state in states:
        theta = rng.uniform(0, np.pi)
        s_counts, _ = chsh_from_counts(_noiseless_table(state, theta=theta))
        s_model = chsh_estimate(chsh_table(state, canonical_settings([theta])))[0][0]
        assert_allclose(s_counts, s_model, atol=1e-9)  # both signed


def test_chsh_from_counts_ideal_value():
    s, sigma = chsh_from_counts(_noiseless_table(post_selected_state(1.0)))
    assert_allclose(s, 2.0 * np.sqrt(2.0), atol=1e-9)
    assert sigma > 0.0


def test_perfect_block_has_zero_error():
    counts = np.zeros((4, 4))
    for (i1, j1), (i2, j2), (i3, j3), (i4, j4) in [
        ((0, 0), (1, 1), (1, 0), (0, 1)),
        ((0, 2), (1, 3), (1, 2), (0, 3)),
        ((2, 0), (3, 1), (3, 0), (2, 1)),
        ((2, 2), (3, 3), (3, 2), (2, 3)),
    ]:
        counts[i1, j1] = 100.0
        counts[i2, j2] = 100.0
    s, sigma = chsh_from_counts(counts)
    assert_allclose(s, 2.0, atol=1e-15)  # every block pinned at E = 1
    assert sigma == 0.0


def test_zero_denominator_block_rejected():
    counts = np.ones((4, 4))
    counts[0, 0] = counts[1, 1] = counts[1, 0] = counts[0, 1] = 0.0
    with pytest.raises(DegenerateDataError):
        chsh_from_counts(counts)


_ORACLE_BLOCKS = (
    (1.0, ((0, 0), (1, 1), (1, 0), (0, 1))),  # +E(t1, t2)
    (-1.0, ((0, 2), (1, 3), (1, 2), (0, 3))),  # -E(t1, t2')
    (1.0, ((2, 0), (3, 1), (3, 0), (2, 1))),  # +E(t1', t2)
    (1.0, ((2, 2), (3, 3), (3, 2), (2, 3))),  # +E(t1', t2')
)


def _oracle_chsh(counts, signed):
    """Per-table scalar reference: the four E-blocks one at a time, in Python floats."""
    s_signed = 0.0
    var_s = 0.0
    for sign, block in _ORACLE_BLOCKS:
        c1, c2, c3, c4 = (float(counts[idx]) for idx in block)
        plus, minus = c1 + c2, c3 + c4
        denom = plus + minus
        if denom <= 0:
            raise DegenerateDataError("zero denominator")
        e = (plus - minus) / denom
        s_signed += sign * e
        var_s += ((1.0 - e) ** 2 * plus + (1.0 + e) ** 2 * minus) / denom**2
    return (s_signed if signed else abs(s_signed)), float(np.sqrt(var_s))


@given(
    seed=st.integers(0, 2**32 - 1),
    lead=st.lists(st.integers(1, 6), max_size=3),
    signed=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_batched_chsh_equals_per_table_loop(seed, lead, signed):
    rng = np.random.default_rng(seed)
    # low means now and then leave a block with no counts at all
    counts = rng.poisson(rng.uniform(0.0, 10.0 ** rng.uniform(-1, 4), size=(*lead, 4, 4)))
    try:
        want = [_oracle_chsh(counts[idx], signed) for idx in np.ndindex(*lead)]
    except DegenerateDataError:
        with pytest.raises(DegenerateDataError):
            chsh_from_counts(counts)
        return
    s, sigma = chsh_from_counts(counts)
    s = s if signed else np.abs(s)
    assert np.shape(s) == np.shape(sigma) == tuple(lead)
    s, sigma = np.asarray(s), np.asarray(sigma)
    assert [(float(s[idx]), float(sigma[idx])) for idx in np.ndindex(*lead)] == want


def test_single_table_returns_floats_equal_to_the_batch():
    table = _noiseless_table(post_selected_state(0.91))
    s, sigma = chsh_from_counts(table)
    assert type(s) is float and type(sigma) is float
    batch_s, batch_sigma = chsh_from_counts(table[None])
    assert batch_s.tolist() == [s] and batch_sigma.tolist() == [sigma]


@pytest.mark.parametrize("bad", [0, 4, 9])
def test_zero_denominator_anywhere_in_a_batch_rejected(bad):
    counts = np.full((10, 4, 4), 5.0)
    counts[bad, 2, 2] = counts[bad, 3, 3] = counts[bad, 3, 2] = counts[bad, 2, 3] = 0.0
    with pytest.raises(DegenerateDataError):
        chsh_from_counts(counts)
    with pytest.raises(DegenerateDataError):
        chsh_from_counts(counts.reshape(2, 5, 4, 4))


@pytest.mark.parametrize("shape", [(4, 4), (3, 4, 4), (2, 5, 4, 4)])
def test_negative_count_rejected(shape):
    counts = np.full(shape, 5.0)
    counts.reshape(-1)[-3] = -1.0
    with pytest.raises(ValueError, match="nonnegative"):
        chsh_from_counts(counts)
    with pytest.raises(ValueError, match="nonnegative"):
        chsh_from_counts(counts[None])


def test_sigma_scale_covariance():
    table = _noiseless_table(post_selected_state(0.91))
    s1, sig1 = chsh_from_counts(table)
    for k in (4.0, 9.0, 100.0):
        sk, sigk = chsh_from_counts(table * k)
        assert_allclose(sk, s1, rtol=1e-12)
        assert_allclose(sigk, sig1 / np.sqrt(k), rtol=1e-12)


def test_expected_tables_match_one_table_per_settings():
    state = visibility_state(0.8, 0.77)
    model = _fringe_model(accidental_calibration=0.026)
    settings = canonical_settings(np.arange(-90.0, 91.0, 15.0) * DEG)
    tables = mean_counts(chsh_table(state, settings), model, 6.0, 60.0)
    assert tables.shape == (len(settings), 4, 4)
    for table, s in zip(tables, settings):
        single = mean_counts(chsh_table(state, [s]), model, 6.0, 60.0)[0]
        assert_allclose(table, single, rtol=1e-15, atol=0.0)


def test_simulated_tables_deterministic():
    expected = _noiseless_table(post_selected_state(0.91), alpha=0.026)
    t1 = poisson_counts(expected, seed=99)
    t2 = poisson_counts(expected, seed=99)
    assert np.array_equal(t1, t2)


def test_sigma_propagation_matches_ensemble():
    expected = _noiseless_table(post_selected_state(0.91), alpha=0.026)
    _, sigma_prop = chsh_from_counts(expected)
    draws = np.array([chsh_from_counts(poisson_counts(expected, seed=s))[0] for s in range(1000)])
    assert abs(draws.std() - sigma_prop) / sigma_prop < 0.20


@pytest.mark.parametrize("scale, bound", [(1, 0.02), (16, 0.01)])
def test_propagated_sigma_s_covers_the_spread_of_s(scale, bound):
    # raw-visibility working point: about 18 counts per cell, 288 at 16x the time.
    # Over 10 seeds x 20,000 runs, mean sigma_S / std(S) is 0.9936 +- 0.0017 and
    # 1.0000 +- 0.0014; one 100,000-run ratio scatters by about 0.002.
    cfg = load_scenario(preset="raw-visibility")
    state, _ = cfg.resolve_state()
    probs = chsh_table(state, cfg.chsh_settings()[1])[0]
    model, pair_rate, t_int = cfg.counting()
    means = mean_counts(probs, model, pair_rate, scale * t_int)
    assert_allclose(means.mean(), 18.0 * scale, rtol=1e-12)
    s, sigma = chsh_from_counts(poisson_counts(np.broadcast_to(means, (100_000, 4, 4)), seed=1))
    assert abs(np.mean(sigma) / np.std(s) - 1.0) < bound


def test_ensemble_mean_counts_converge_to_expectation():
    means = np.array([(2.0 + 0.5) * 60.0])
    draws = np.array([poisson_counts(means, seed=s)[0] for s in range(10_000)])
    assert abs(draws.mean() - 150.0) / 150.0 < 0.01


# --- efficiency_budget -------------------------------------------------------------------


def test_budget_pump_chain():
    power, _, _ = efficiency_budget(
        pump_power_in=13e-3,
        objective_T=0.70,
        facet_T=0.73,
        overlap=0.20,
        collection_T_per_arm=0.10,
        model=_budget_model(),
        measured_cc_rate=0.3,
    )
    assert_allclose(power, 1.3286e-3, rtol=1e-12)


def test_budget_efficiency_hand_value():
    # pair rate 0.3 / (0.25^2 * 0.1^2 * 2e-3 * 0.5) = 4.8e5 /s;
    # pump photon flux 1.3286 mW / (hbar * 2 pi c / 777.95 nm) = 5.2032e15 /s
    _, pair_rate, eff = efficiency_budget(
        pump_power_in=13e-3,
        objective_T=0.70,
        facet_T=0.73,
        overlap=0.20,
        collection_T_per_arm=0.10,
        model=_budget_model(),
        measured_cc_rate=0.3,
    )
    assert_allclose(pair_rate, 4.8e5, rtol=1e-12)
    assert_allclose(eff, 9.2251e-11, rtol=1e-3)
    assert 1e-11 < eff < 1e-9


def test_budget_zero_rate_zero_efficiency():
    _, pair_rate, eff = efficiency_budget(
        pump_power_in=13e-3,
        objective_T=0.70,
        facet_T=0.73,
        overlap=0.20,
        collection_T_per_arm=0.10,
        model=_budget_model(),
        measured_cc_rate=0.0,
    )
    assert pair_rate == 0.0 and eff == 0.0


def test_budget_rejects_bad_transmissions_and_efficiencies():
    with pytest.raises(ValueError):
        efficiency_budget(13e-3, 1.4, 0.73, 0.2, 0.1, _budget_model(), 0.3)
    dead_detector = DetectorModel(
        trigger_rate=1e5,
        gate_width=20e-9,
        coincidence_window=3e-9,
        efficiency_1=0.0,
        efficiency_2=0.25,
    )
    with pytest.raises(ValueError, match="detector efficiencies must be positive"):
        efficiency_budget(13e-3, 0.70, 0.73, 0.20, 0.10, dead_detector, 0.3)


def test_inferred_pair_rate_unfolds_duty_cycle():
    pair_rate = efficiency_budget(13e-3, 0.70, 0.73, 0.20, 0.10, _budget_model(), 0.3)[1]
    assert_allclose(pair_rate, 4.8e5, rtol=1e-12)
