import csv
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spdcpol import (
    JointSpectralAmplitude,
    SpectralGrid,
    canonical_settings,
    chsh_arm_angles,
    chsh_from_counts,
    cli,
    coincidence_probs,
    concurrence,
    filter_amplitude,
    fit_fringe,
    overlap_scan,
    phase_mismatch,
    runners,
)
from spdcpol.config import ScenarioConfig, base_config_dict, load_scenario
from spdcpol.counting import accidental_rate, derive_seed
from spdcpol.runners import run_budget, run_chsh, run_delay_scan, run_fringe, run_s_curve


def scenario(**edits):
    """The default scenario with each block's keys updated from edits."""
    data = base_config_dict()
    for block, values in edits.items():
        data[block].update(values)
    return ScenarioConfig(data=data)


def test_fringe_ideal_unit_visibility_both_bases():
    record = run_fringe(load_scenario(preset="paper-ideal"))
    bases = record.scalars["bases"]
    assert [b["theta1_deg"] for b in bases] == [0.0, 45.0]
    for b in bases:
        assert_allclose(b["visibility_model"], 1.0, atol=1e-9)


def test_fringe_calibrated_visibilities():
    record = run_fringe(load_scenario(preset="paper-calibrated", runs=25, seed=5))
    by_theta1 = {b["theta1_deg"]: b for b in record.scalars["bases"]}
    assert_allclose(by_theta1[45.0]["visibility_model"], 0.91, atol=1e-9)
    assert abs(by_theta1[0.0]["visibility_raw_fit_mean"] - 0.80) < 0.05
    assert abs(by_theta1[45.0]["visibility_raw_fit_mean"] - 0.77) < 0.05


def test_chsh_ideal_maximal_violation():
    record = run_chsh(load_scenario(preset="paper-ideal"))
    assert_allclose(record.scalars["s_model"], 2.0 * np.sqrt(2.0), atol=1e-9)


def test_chsh_zero_coherence():
    record = run_chsh(scenario(state={"coherence": 0.0}))
    assert_allclose(record.scalars["s_model"], np.sqrt(2.0), atol=1e-9)


def test_chsh_raw_visibility_model_point():
    record = run_chsh(load_scenario(preset="raw-visibility"))
    assert_allclose(record.scalars["s_model"], np.sqrt(2.0) * (0.80 + 0.77), atol=1e-9)
    assert 0.1 <= record.scalars["sigma_s"] <= 0.3


def test_chsh_explicit_angles_on_coherence_state():
    c = 0.83
    angles = {"theta1": 12.0, "theta1p": -61.0, "theta2": 33.5, "theta2p": 101.0}
    cfg = scenario(state={"coherence": c}, run={"chsh_angles_deg": angles})
    t1, t1p, t2, t2p = np.radians([angles[k] for k in ("theta1", "theta1p", "theta2", "theta2p")])

    def e(a, b):
        return np.cos(2 * a) * np.cos(2 * b) - c * np.sin(2 * a) * np.sin(2 * b)

    expected = abs(e(t1, t2) - e(t1, t2p) + e(t1p, t2) + e(t1p, t2p))
    record = run_chsh(cfg)
    assert record.scalars["settings_deg"] == angles
    assert_allclose(record.scalars["s_model"], expected, rtol=0, atol=1e-12)


def test_angles_are_echoed_as_configured():
    # degrees(radians(x)) is not always x: 12 became 12.000000000000002, 30 (a fringe
    # lattice point) 29.999999999999996 and -62.5 (an S(theta) point) -62.50000000000001
    angles = {"theta1": 12, "theta1p": -61, "theta2": 30, "theta2p": 101}
    cfg = scenario(run={"fringe_theta1_deg": [0, 12], "chsh_angles_deg": angles})
    fringe = run_fringe(cfg)
    assert [basis["theta1_deg"] for basis in fringe.scalars["bases"]] == [0.0, 12.0]
    for table in fringe.tables.values():
        assert [row[0] for row in table["rows"]] == [10.0 * k for k in range(37)]
    chsh = run_chsh(cfg)
    assert chsh.scalars["settings_deg"] == angles
    rows = chsh.tables["counts"]["rows"]
    assert [row[2] for row in rows[::4]] == [12.0, 102.0, -61.0, 29.0]
    assert [row[3] for row in rows[:4]] == [30.0, 120.0, 101.0, 191.0]
    s_curve = run_s_curve(cfg)
    curve = s_curve.tables["curve"]["rows"]
    assert [row[0] for row in curve] == [-90.0 + 2.5 * k for k in range(73)]
    assert s_curve.scalars["theta_at_max_deg"] == -22.5


def test_delays_are_echoed_as_configured():
    # to_fs(fs(x)) is not always x: the optimum 22.25 became 22.250000000000004, a
    # configured 30.1 fs 30.100000000000005 and -178 (a curve point) -178.00000000000003
    scan = run_delay_scan(load_scenario())
    curve = scan.tables["curve"]["rows"]
    assert [row[0] for row in curve] == [-178.0 + 0.5 * k for k in range(801)]
    assert scan.scalars["tau_star_fs"] == 22.25
    chsh = run_chsh(scenario(state={"tau_fs": 30.1}))
    assert chsh.scalars["tau_source"] == "configured"
    assert chsh.scalars["tau_fs"] == 30.1


def test_s_curve_model_column_is_ideal_identity():
    record = run_s_curve(load_scenario(preset="paper-ideal", seed=3))
    rows = np.array(record.tables["curve"]["rows"], dtype=float)
    theta = np.radians(rows[:, 0])
    assert_allclose(rows[:, 1], 3 * np.cos(2 * theta) - np.cos(6 * theta), atol=1e-9)
    at_zero = rows[np.isclose(rows[:, 0], 0.0)][0]
    assert_allclose(at_zero[1], 2.0, atol=1e-12)


def test_s_curve_mc_points_within_three_sigma():
    record = run_s_curve(load_scenario(preset="paper-ideal", seed=11))
    rows = np.array(record.tables["curve"]["rows"], dtype=float)
    diff = np.abs(rows[:, 2] - rows[:, 1])
    sigma = rows[:, 3]
    # sigma = 0 happens where every block is pinned at E = +/-1; the
    # simulated value is then pinned too and must match outright
    within = np.where(sigma > 0, diff <= 3.0 * sigma, diff < 1e-12)
    assert within.mean() >= 0.95


def test_delay_scan_curve_peak_matches_scalar():
    record = run_delay_scan(load_scenario(preset="gvd-off"))
    rows = np.array(record.tables["curve"]["rows"], dtype=float)
    peak_tau = rows[np.argmax(rows[:, 1]), 0]
    assert abs(peak_tau - record.scalars["tau_star_fs"]) <= 0.5  # curve step size
    assert record.scalars["v_int_abs_at_star"] >= rows[:, 1].max() - 1e-9


def test_long_guide_optimum_follows_walkoff(tmp_path):
    # 12 mm: delta*L/2 = 222.47 fs, outside a fixed +-200 fs search window
    path = tmp_path / "long.json"
    path.write_text(
        json.dumps(
            {
                "dispersion": {"length_mm": 12.0},
                "filter": {"shape": "top_hat", "center_nm": 1555.9, "fwhm_nm": 20.0},
            }
        )
    )
    cfg = load_scenario(config_path=path)
    assert abs(run_delay_scan(cfg).scalars["tau_star_fs"] - 222.47) <= 0.05
    _, info = cfg.resolve_state()
    assert info["tau_source"] == "optimized"
    assert abs(info["tau_fs"] - 222.47) <= 0.05


def test_long_guide_default_curve_peaks_at_the_reported_delay(tmp_path):
    # the default delay scan is centred on delta*L/2, so it holds the optimum
    path = tmp_path / "long.json"
    path.write_text(
        json.dumps(
            {
                "dispersion": {"length_mm": 12.0},
                "filter": {"shape": "top_hat", "center_nm": 1555.9, "fwhm_nm": 20.0},
            }
        )
    )
    record = run_delay_scan(load_scenario(config_path=path))
    rows = np.array(record.tables["curve"]["rows"], dtype=float)
    peak_tau = rows[np.argmax(rows[:, 1]), 0]
    assert abs(peak_tau - record.scalars["tau_star_fs"]) <= 0.5  # curve step size
    assert rows[0, 0] < record.scalars["tau_star_fs"] < rows[-1, 0]


def test_default_delay_scan_curve_matches_a_dense_support_grid():
    cfg = load_scenario()
    disp, filt = cfg.dispersion(), cfg.spectral_filter()
    omega0 = disp.omega_deg
    w_lo, w_hi = filt.band_edges_omega()
    support = min(omega0 - w_lo, w_hi - omega0) * (1.0 - 1e-12)  # end nodes inside the band
    grid = SpectralGrid(omega_max=support, n_points=65537)
    om, phi = grid.omegas, phase_mismatch(grid.omegas, disp)
    g_pair = filter_amplitude(omega0 + om, filt) * filter_amplitude(omega0 - om, filt)
    assert np.all(g_pair == 1.0)
    dense = JointSpectralAmplitude(grid, np.sinc(phi / np.pi) * np.exp(1j * phi))
    taus, step = cfg.delay_scan_fs()
    reference = np.abs(overlap_scan(dense, taus[0] * 1e-15, step * 1e-15, taus.size))
    rows = np.array(run_delay_scan(cfg).tables["curve"]["rows"], dtype=float)
    assert_allclose(rows[:, 0], taus, rtol=1e-12)
    assert np.max(np.abs(rows[:, 1] - reference)) < 1e-5


@pytest.mark.parametrize(
    "edits",
    [
        {},
        {"filter": {"shape": "gaussian"}},
        {"dispersion": {"length_mm": 12.0}},
        {"grid": {"n_points": 4099}},  # no error estimate: (N - 1)/2 is odd
    ],
)
def test_delay_scan_reports_the_state_resolve_state_builds(edits):
    # one evaluation serves both, so they agree bit for bit, not to a tolerance
    cfg = scenario(**edits)
    scan = run_delay_scan(cfg).scalars
    state, info = cfg.resolve_state()
    assert info["tau_source"] == "optimized"
    assert scan["tau_star_fs"] == info["tau_fs"]
    assert scan["v_int_abs_at_star"] == info["v_int_abs"]
    assert scan["v_int_abs_error_estimate"] == info["v_int_abs_error_estimate"]
    assert scan["grid_points"] == info["grid_points"]
    assert scan["concurrence_at_star"] == concurrence(state)


def test_spectral_records_certify_their_grid():
    cfg = load_scenario()
    scan = run_delay_scan(cfg).scalars
    fringe = run_fringe(cfg).scalars
    for scalars in (scan, fringe):
        assert scalars["grid_points"] == 1025
        assert 0.0 <= scalars["v_int_abs_error_estimate"] <= 1e-5
    assert fringe["v_int_abs_error_estimate"] == scan["v_int_abs_error_estimate"]
    override = run_fringe(load_scenario(preset="paper-calibrated")).scalars
    assert "grid_points" not in override and "v_int_abs_error_estimate" not in override


def test_budget_runner_scalars():
    cfg = load_scenario(preset="raw-visibility")
    record = run_budget(cfg)
    assert record.scalars["pump_power_in_mw"] == 13.0  # as configured, not 13.000000000000002
    assert_allclose(record.scalars["power_in_guide_mw"], 1.3286, rtol=1e-6)
    assert_allclose(record.scalars["inferred_pair_rate_hz"], 4.8e5, rtol=1e-6)
    assert 1e-11 < record.scalars["spdc_efficiency"] < 1e-9


def test_record_write_and_reload(tmp_path):
    record = run_budget(load_scenario())
    paths = record.write(tmp_path)
    payload = json.loads((tmp_path / "budget.json").read_text())
    assert payload["command"] == "budget"
    assert payload["config"] == record.config
    assert set(payload["tables"]) == set(record.tables)
    assert all(p.exists() for p in paths)
    assert not list(tmp_path.glob("*.tmp"))  # atomic writes leave no temp files


# --- seed tree: child (seed, tag, ...) feeds exactly one Poisson call ---------------


def _draw(seed, means, *indices):
    return np.random.default_rng(derive_seed(seed, *indices)).poisson(means)


def _means(cfg, state, theta1, theta2):
    p = coincidence_probs(state.rho, theta1, theta2)
    model, pair_rate, t_int = cfg.counting()
    return (pair_rate * p + accidental_rate(model)) * t_int


def test_first_run_counts_follow_the_seed_tree():
    cfg = load_scenario(preset="paper-calibrated", seed=17, runs=3)
    state, _ = cfg.resolve_state()
    seed = cfg.seed()
    _, _, t_int = cfg.counting()

    # fringe: raw counts from (seed, 0, basis, run), accidentals from (seed, 1, basis, run)
    grid = np.radians(cfg.fringe_theta2_deg())
    fringe = run_fringe(cfg)
    acc_mean = accidental_rate(cfg.counting()[0]) * t_int
    theta1s = np.radians(cfg.fringe_theta1_deg())
    for i, (theta1, table) in enumerate(zip(theta1s, fringe.tables.values())):
        raw = _draw(seed, _means(cfg, state, theta1, grid), 0, i, 0)
        acc = _draw(seed, np.full(grid.size, acc_mean), 1, i, 0)
        assert [row[2] for row in table["rows"]] == raw.tolist()
        assert [row[3] for row in table["rows"]] == acc.tolist()

    # chsh: the 4x4 table from (seed, 2, run)
    (a,), (b,) = chsh_arm_angles(cfg.chsh_settings()[1], np.pi / 2)
    counts = _draw(seed, _means(cfg, state, a[:, None], b[None, :]), 2, 0)
    chsh = run_chsh(cfg)
    assert [row[4] for row in chsh.tables["counts"]["rows"]] == counts.ravel().tolist()

    # s-curve: one table per angle k from (seed, 3, k)
    rows = run_s_curve(cfg).tables["curve"]["rows"]
    for k, theta in enumerate(np.radians(cfg.s_curve_theta_deg())):
        a, b = chsh_arm_angles(canonical_settings(theta), np.pi / 2)
        drawn = _draw(seed, _means(cfg, state, a[:, None], b[None, :]), 3, k)
        assert rows[k][2:] == list(chsh_from_counts(drawn))


@pytest.mark.parametrize("preset", [None, "raw-visibility"])
def test_a_basis_model_fringe_does_not_depend_on_its_batch(tmp_path, preset):
    # the defaults resolve a spectral-model state; raw-visibility sets its own
    model = []
    for theta1_deg in ([45], [0, 12, 45, -30]):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"run": {"fringe_theta1_deg": theta1_deg}}))
        record = run_fringe(load_scenario(path, preset=preset))
        basis = record.scalars["bases"][theta1_deg.index(45)]
        table = record.tables["theta1_45"]
        prob_model = [row[table["columns"].index("prob_model")] for row in table["rows"]]
        model.append(np.array([*prob_model, basis["visibility_model"]]).tobytes())
    assert model[0] == model[1]  # bit for bit


# --- Monte-Carlo streams: one run-0 child per (tag, basis), runs are its rows -------


def _spy(monkeypatch, name, arg):
    """Record positional argument `arg` of every call the runners make to `name`."""
    calls = []
    real = getattr(runners, name)

    def spy(*args, **kwargs):
        calls.append(np.array(args[arg]))
        return real(*args, **kwargs)

    monkeypatch.setattr(runners, name, spy)
    return calls


def test_runs_are_consecutive_rows_of_the_run_0_stream(monkeypatch):
    runs = 600  # three blocks of the default 256 runs
    cfg = load_scenario(preset="paper-calibrated", seed=23, runs=runs)
    state, _ = cfg.resolve_state()
    seed, grid = cfg.seed(), np.radians(cfg.fringe_theta2_deg())
    model, _, t_int = cfg.counting()
    acc_mean = accidental_rate(model) * t_int

    fits = _spy(monkeypatch, "fit_fringe", 1)
    record = run_fringe(cfg)
    theta1s = np.radians(cfg.fringe_theta1_deg())
    # first the model fringes of every basis, one (bases, angles) batch
    assert np.array_equal(fits.pop(0), coincidence_probs(state.rho, theta1s[:, None], grid))
    # then per block and basis: raw counts, then raw - accidentals
    per_basis = len(fits) // len(record.scalars["bases"])
    for i, (theta1, basis) in enumerate(zip(theta1s, record.scalars["bases"])):
        mine = fits[i * per_basis : (i + 1) * per_basis]
        means = np.broadcast_to(_means(cfg, state, theta1, grid), (runs, grid.size))
        raw = _draw(seed, means, 0, i, 0)
        acc = _draw(seed, np.full((runs, grid.size), acc_mean), 1, i, 0)
        assert np.array_equal(np.concatenate(mine[0::2]), raw)
        assert np.array_equal(np.concatenate(mine[1::2]), raw - acc)
        vis = [fit_fringe(grid, row) for row in raw]
        assert_allclose(basis["visibility_raw_fit_mean"], np.mean(vis), rtol=0, atol=1e-12)
        assert_allclose(basis["visibility_raw_fit_std"], np.std(vis), rtol=0, atol=1e-12)

    tables = _spy(monkeypatch, "chsh_from_counts", 0)
    record = run_chsh(cfg)
    (a,), (b,) = chsh_arm_angles(cfg.chsh_settings()[1], np.pi / 2)
    means = _means(cfg, state, a[:, None], b[None, :])
    counts = _draw(seed, np.broadcast_to(means, (runs, 4, 4)), 2, 0)
    assert np.array_equal(np.concatenate(tables), counts)
    s = [abs(chsh_from_counts(table)[0]) for table in counts]  # the record's S is |S|
    assert_allclose(record.scalars["s_counts_mean"], np.mean(s), rtol=0, atol=1e-12)
    assert_allclose(record.scalars["s_counts_std"], np.std(s), rtol=0, atol=1e-12)


@pytest.mark.parametrize("block", [1, 7, 256])
def test_block_size_changes_no_result(monkeypatch, block):
    runs = 300
    cfg = load_scenario(preset="paper-calibrated", seed=29, runs=runs)
    results = {}
    for size in (runs, block):  # one block covering every run, then `block`
        monkeypatch.setattr(runners, "MC_BLOCK_RUNS", size)
        fits = _spy(monkeypatch, "fit_fringe", 1)
        tables = _spy(monkeypatch, "chsh_from_counts", 0)
        fringe, chsh = run_fringe(cfg), run_chsh(cfg)
        monkeypatch.undo()
        # after the one model fit, raw and subtracted fits alternate block by block
        counts = [np.concatenate(fits[1::2]), np.concatenate(fits[2::2]), np.concatenate(tables)]
        results[size] = (fringe, chsh, counts)
    (f0, c0, counts0), (f1, c1, counts1) = results[runs], results[block]
    assert all(np.array_equal(x, y) for x, y in zip(counts0, counts1))
    assert f0.tables == f1.tables and c0.tables == c1.tables
    for s0, s1 in ((f0.scalars, f1.scalars), (c0.scalars, c1.scalars)):
        assert s0.keys() == s1.keys()
        assert_allclose(list(_numbers(s1)), list(_numbers(s0)), rtol=0, atol=1e-12)


def _numbers(obj):
    """Every number in a scalars record, depth first."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for item in obj:
            yield from _numbers(item)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


@pytest.mark.parametrize("command", ["fringe", "chsh"])
def test_one_run_and_many_blocks_write_the_same_tables(tmp_path, command):
    for runs in ("1", "600"):
        argv = [command, "--seed", "31", "--runs", runs, "--out", str(tmp_path / runs)]
        assert cli.main(argv) == 0
    one = {p.name: p.read_bytes() for p in (tmp_path / "1").glob("*.csv")}
    many = {p.name: p.read_bytes() for p in (tmp_path / "600").glob("*.csv")}
    assert one and one == many


@pytest.mark.parametrize("runner", [run_fringe, run_chsh])
def test_memory_does_not_grow_with_runs(runner):
    def peak(runs):
        cfg = load_scenario(preset="paper-calibrated", runs=runs)
        tracemalloc.start()
        try:
            runner(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(runners.MC_BLOCK_RUNS)  # warm caches and lazy imports first
    assert peak(20_000) - peak(runners.MC_BLOCK_RUNS) <= 256 * 1024


# --- CSV text: the header, then each value's repr --------------------------------------


def _cell(value):
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    return str(value)


def _reference_csv(columns, rows):
    """The bytes csv.writer gives the header and the rows of _cell(value)."""
    reference = io.StringIO()
    writer = csv.writer(reference, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(v) for v in row] for row in rows)
    return reference.getvalue()


_FLOATS = st.floats(allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -2.2250738585072014e-308]
)
_INT64 = st.integers(-(2**63), 2**63 - 1)
_COLUMNS = st.one_of(
    st.lists(_FLOATS).map(lambda v: np.array(v, dtype=np.float64)),
    st.lists(_INT64).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(_FLOATS),
    st.lists(st.integers()),
    st.lists(_FLOATS | st.integers()),
)


@given(columns=st.lists(_COLUMNS, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_column_formatting_writes_the_bytes_of_cell_by_cell_formatting(columns):
    size = min(len(c) for c in columns)
    columns = {f"c{i}": c[:size] for i, c in enumerate(columns)}
    record = runners.ResultRecord(command="t", config={}, scalars={})
    record.add_table("t", columns)
    table = record.tables["t"]
    rows = [[c[k] for c in columns.values()] for k in range(size)]
    expected = _reference_csv(list(columns), rows)
    assert runners._csv_text(table["columns"], table["rows"]) == expected
    assert len(table["rows"]) == size


def test_numeric_blocks_write_the_bytes_of_csv_writer():
    columns = {
        "x": [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e22, 0.1],
        "n": [2**53 + 1, -(2**63), 2**64, 0, -1, 7, 10**30],
    }
    rows = [list(row) for row in zip(*columns.values())]
    assert runners._csv_text(list(columns), rows) == _reference_csv(list(columns), rows)


def test_add_table_rejects_anything_but_numbers_under_identifier_names():
    record = runners.ResultRecord(command="t", config={}, scalars={})
    record.add_table("kept", {"x": [1.5, 2]})
    held = [  # (column, the type add_table names)
        ([1.0, True], "bool"),
        (np.array([True, False]), "bool"),
        ([1.0, "a,b"], "str"),
        ('say "hi"', "str"),
        ([1.0, None], "NoneType"),
        (np.array([1 + 2j, 0j]), "complex"),
        ([1.5, np.float64(2.5)], "float64"),
        ([np.int64(3), 4], "int64"),
        ([[1.0, 2.0], [3.0, 4.0]], "list"),
        (np.zeros((2, 2)), "list"),
    ]
    for column, kind in held:
        with pytest.raises(ValueError, match=f"table 'bad': column 'y' holds {kind},"):
            record.add_table("bad", {"x": [1.0, 2.0], "y": column})
    for name in ("a,b", 'say"hi"', "a b", "", "1x"):
        with pytest.raises(ValueError, match="table 'bad': column name"):
            record.add_table("bad", {"x": [1.0], name: [2.0]})
    assert record.tables == {"kept": {"columns": ["x"], "rows": [[1.5], [2]]}}
