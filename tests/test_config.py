import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spdcpol import ConfigurationError, DegenerateDataError, config, spectral
from spdcpol import state as state_mod
from spdcpol.config import PRESETS, ScenarioConfig, base_config_dict, load_scenario


def test_defaults_load_and_validate():
    cfg = load_scenario()
    disp = cfg.dispersion()
    assert_allclose(disp.length_L, 1.2e-3)
    assert_allclose(disp.lambda_deg, 1555.9e-9)
    assert_allclose(cfg.spectral_filter().fwhm_lambda, 45e-9)
    assert cfg.grid().n_points == 1025
    assert cfg.delay_scan_fs() == {"start": -178.0, "stop": 222.0, "step": 0.5}
    assert cfg.detector().singles_rate_1 == 3550.0
    assert cfg.seed() == 12345


def test_unknown_key_named_with_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"detector": {"gate_widht_ns": 100.0}}))
    with pytest.raises(ConfigurationError, match=r"detector\.gate_widht_ns"):
        load_scenario(config_path=path)


def test_unknown_top_level_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"detectors": {}}))
    with pytest.raises(ConfigurationError, match="detectors"):
        load_scenario(config_path=path)


def test_preset_bundles():
    cal = load_scenario(preset="paper-calibrated")
    assert cal.data["state"]["coherence"] == 0.91
    assert cal.data["detector"]["accidental_calibration"] == 0.026

    raw = load_scenario(preset="raw-visibility")
    assert raw.data["state"]["visibility_z"] == 0.80
    assert raw.data["detector"]["gate_width_ns"] == 20.0
    assert raw.counting()[1:] == (0.6, 120.0)

    off = load_scenario(preset="gvd-off")
    assert off.dispersion().gvd_D == 0.0


def test_preset_key_inside_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"preset": "paper-ideal", "run": {"seed": 7}}))
    cfg = load_scenario(config_path=path)
    assert cfg.data["state"]["coherence"] == 1.0
    assert cfg.seed() == 7


def test_unknown_preset_rejected():
    with pytest.raises(ConfigurationError, match="unknown preset"):
        load_scenario(preset="paper-fantasy")


def test_cli_overrides_take_precedence(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"run": {"seed": 7, "runs": 2}}))
    cfg = load_scenario(config_path=path, seed=99, runs=5)
    assert cfg.seed() == 99
    assert cfg.runs() == 5


def test_invalid_values_fail_at_load(tmp_path):
    # (scenario file, the key path the error names)
    angles = {"theta1": 0, "theta1p": -45, "theta2": 22.5, "theta2p": 67.5}
    cases = [
        ({"dispersion": {"length_mm": -1.0}}, "dispersion"),
        ({"grid": {"omega_max_rad_s": 1e13, "n_points": 8192}}, "grid"),
        ({"grid": {"n_points": 8193.5}}, "grid.n_points"),
        ({"grid": {"n_points": 1024}}, "grid.n_points must be odd"),
        ({"state": {"tau_fs": "optimise"}}, "state.tau_fs"),
        ({"state": {"tau_fs": None}}, "state.tau_fs"),
        ({"run": {"integration_time_s": 0.0}}, "run.integration_time_s"),
        ({"state": {"coherence": 0.5, "visibility_z": 0.8, "visibility_d": 0.7}}, "state"),
        ({"filter": {"shape": "brick_wall"}}, "filter.shape"),
        # non-numeric values, wrong containers and whole blocks of the wrong type
        ({"run": {"pair_rate_hz": "x"}}, "run.pair_rate_hz"),
        ({"run": {"integration_time_s": "x"}}, "run.integration_time_s"),
        ({"budget": {"pump_power_mw": "x"}}, "budget.pump_power_mw"),
        ({"state": {"phi_bs_rad": "x"}}, "state.phi_bs_rad"),
        ({"run": {"chsh_theta_deg": "x"}}, "run.chsh_theta_deg"),
        ({"filter": {"center_nm": [1]}}, "filter.center_nm"),
        ({"detector": "abc"}, "detector"),
        ({"run": None}, "run"),
        # JSON true/false are not numbers
        ({"dispersion": {"length_mm": True}}, "dispersion.length_mm"),
        ({"run": {"fringe_theta1_deg": [True]}}, "run.fringe_theta1_deg"),
        # scans and grids beyond MAX_POINTS points
        ({"run": {"delay_scan_fs": {"step": 1e-12}}}, "run.delay_scan_fs"),
        ({"grid": {"n_points": 2000000001}}, "grid.n_points"),
        ({"run": {"s_curve_theta_deg": {"start": 0, "stop": 1e300, "step": 1e-300}}},
         "run.s_curve_theta_deg"),
        ({"run": {"fringe_theta2_deg": {"start": 0, "stop": 360, "stp": 10}}},
         "run.fringe_theta2_deg.stp"),
        # ranges no domain object enforces
        ({"budget": {"pump_lambda_nm": 0}}, "budget.pump_lambda_nm"),
        ({"budget": {"objective_transmission": 1.4}}, "budget.objective_transmission"),
        ({"filter": {"fwhm_nm": 3200.0}, "grid": {"omega_max_rad_s": 1e14}}, "filter"),
        # the state block under every subcommand
        ({"state": {"visibility_z": 0.8}}, "state.visibility_z"),
        ({"state": {"visibility_z": 0.2, "visibility_d": 0.9}}, "state"),
        ({"state": {"coherence": 1.5}}, "state"),
        # explicit CHSH angles: exactly the four keys
        ({"run": {"chsh_angles_deg": {**angles, "theta3": 1.0}}}, "run.chsh_angles_deg.theta3"),
        ({"run": {"chsh_angles_deg": {"theta1": 0}}}, "run.chsh_angles_deg.theta1p"),
        # one fringe table per angle, each with its own name
        ({"run": {"fringe_theta1_deg": []}}, "run.fringe_theta1_deg"),
        ({"run": {"fringe_theta1_deg": [0, 0]}}, "run.fringe_theta1_deg"),
        ({"run": {"fringe_theta1_deg": [45, 45.0000001]}}, "run.fringe_theta1_deg"),
        ({"preset": ["paper-ideal"]}, "preset"),
    ]
    for case, where in cases:
        path = tmp_path / "case.json"
        path.write_text(json.dumps(case))
        with pytest.raises(ConfigurationError, match=re.escape(where)):
            load_scenario(config_path=path)


def test_grid_serves_every_delay_the_config_can_ask_for():
    # one grid for every command: tau_max is the largest of the search's reach,
    # the delay scan's ends and a configured tau
    def grid(**edits):
        data = base_config_dict()
        for block, values in edits.items():
            data[block].update(values)
        return ScenarioConfig(data=data).grid()

    default = grid()
    assert default.n_points == 1025
    assert grid(state={"tau_fs": 22.0}) == default
    assert grid(state={"tau_fs": -900.0}).n_points == 4097
    assert grid(run={"delay_scan_fs": {"start": -50.0, "stop": 900.0, "step": 1.0}}).n_points == 4097
    assert grid(grid={"n_points": 33}) == spectral.SpectralGrid(default.omega_max, 33)


def test_default_delay_scan_is_centred_on_half_walkoff():
    data = base_config_dict()
    data["dispersion"]["length_mm"] = 12.0  # delta*L/2 = 222.47 fs
    cfg = ScenarioConfig(data=data)
    assert cfg.delay_scan_fs() == {"start": 22.5, "stop": 422.5, "step": 0.5}
    taus, step = cfg.delay_scan_grid_fs()
    assert taus.size == 801 and step == 0.5
    data["run"]["delay_scan_fs"] = {"start": -1.0, "stop": 1.0, "step": 0.5}
    assert cfg.delay_scan_fs() == {"start": -1.0, "stop": 1.0, "step": 0.5}
    data["run"]["delay_scan_fs"] = None
    for length_mm in (1e15, float("inf")):  # walk-offs beyond the reach of a 0.5 fs lattice
        data["dispersion"]["length_mm"] = length_mm
        with pytest.raises(ConfigurationError, match="too large to centre"):
            cfg.delay_scan_fs()


def test_state_tau_string_only_optimize(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"state": {"tau_fs": "optimise", "coherence": None}}))
    cfg_err = None
    try:
        load_scenario(config_path=path).resolve_state()
    except ConfigurationError as exc:
        cfg_err = exc
    assert cfg_err is not None


def test_visibility_override_needs_both(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"state": {"visibility_z": 0.8}}))
    with pytest.raises(ConfigurationError, match="together"):
        load_scenario(config_path=path)


def test_angle_grids_resolved_in_radians():
    cfg = load_scenario()
    grid = np.radians(cfg.fringe_theta2_deg())
    assert grid.size == 37
    assert_allclose(grid[-1], 2 * np.pi)
    assert_allclose(np.radians(cfg.fringe_theta1_deg()), [0.0, np.pi / 4])
    _, settings = cfg.chsh_settings()
    assert_allclose(np.degrees(settings), [[0.0, -45.0, 22.5, 67.5]])


def test_explicit_chsh_angles(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {"run": {"chsh_angles_deg": {"theta1": 10, "theta1p": 55, "theta2": 32.5, "theta2p": 77.5}}}
        )
    )
    _, settings = load_scenario(config_path=path).chsh_settings()
    assert_allclose(np.degrees(settings[0, 0]), 10.0)
    assert_allclose(np.degrees(settings[0, 3]), 77.5)


@pytest.mark.parametrize("t", [22.5, 67.5, -37.1, 1e-300, 3.3e307, 0.1])
def test_canonical_chsh_settings_built_from_t_in_each_unit(t):
    cfg = load_scenario()
    cfg.data["run"]["chsh_theta_deg"] = t
    deg, rad = cfg.chsh_settings()
    assert deg == {"theta1": 0.0, "theta1p": -2.0 * t, "theta2": t, "theta2p": 3.0 * t}
    r = math.radians(t)  # not radians(3t): the two can differ in the last bit
    assert rad.shape == (1, 4) and rad.tolist() == [[0.0, -2.0 * r, r, 3.0 * r]]


@pytest.mark.parametrize(
    "angles",
    [
        {"theta1": 10, "theta1p": 55, "theta2": 32.5, "theta2p": 77.5},
        {"theta1": 12, "theta1p": -61.3, "theta2": 1e-300, "theta2p": -1.7e308},
    ],
)
def test_explicit_chsh_settings_are_each_angle_in_radians(angles):
    cfg = load_scenario()
    cfg.data["run"]["chsh_angles_deg"] = angles
    deg, rad = cfg.chsh_settings()
    assert deg == angles and all(type(v) is float for v in deg.values())
    assert rad.tolist() == [[math.radians(angles[k]) for k in deg]]


def test_echo_reloads_identically(tmp_path):
    cfg = load_scenario(preset="paper-calibrated", seed=31337)
    echo = cfg.to_dict()
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(echo))
    again = load_scenario(config_path=path)
    assert again.to_dict() == echo


def test_base_dict_is_a_copy():
    d = base_config_dict()
    d["detector"]["trigger_rate_hz"] = -1
    assert base_config_dict()["detector"]["trigger_rate_hz"] == 1e5


def test_presets_do_not_mutate_base():
    before = base_config_dict()
    load_scenario(preset="raw-visibility")
    assert base_config_dict() == before
    assert set(PRESETS) == {"paper-ideal", "paper-calibrated", "gvd-off", "raw-visibility"}


# --- the delay search: once per spectrum and process ------------------------------


def _spectrum(**edits):
    """A 1025-point spectral scenario with some keys changed, as {block: {key: value}}."""
    data = base_config_dict()
    data["grid"]["n_points"] = 1025
    for block, values in edits.items():
        data[block].update(values)
    return ScenarioConfig(data=data)


@pytest.fixture
def searches(monkeypatch):
    """Arguments of each delay search run from here on, starting from an empty memo."""
    calls = []
    search = state_mod.optimal_delay
    monkeypatch.setattr(state_mod, "optimal_delay", lambda *a: calls.append(a) or search(*a))
    monkeypatch.setattr(config, "_last_delay_search", None)
    return calls


def test_delay_search_runs_once_for_one_spectrum(searches):
    first, second = _spectrum(), _spectrum(run={"seed": 3})
    jsa = first.build_jsa()
    delay = first.optimal_delay(jsa)
    assert second.optimal_delay(second.build_jsa()) is delay
    assert second.resolve_state()[1]["tau_fs"] == first.resolve_state()[1]["tau_fs"]
    assert len(searches) == 1
    disp = first.dispersion()
    assert delay == state_mod.optimal_delay(jsa, disp.delta * disp.length_L / 2)


@pytest.mark.parametrize(
    "edits",
    [
        {"dispersion": {"length_mm": float(np.nextafter(1.2, 2.0))}},
        {"dispersion": {"delta0_per_m": -0.0}},  # equal to 0.0, but not bit for bit
        {"dispersion": {"gvd_D_ps_nm_km": -800.0}},
        {"filter": {"shape": "gaussian"}},
        {"filter": {"fwhm_nm": 44.0}},
        {"grid": {"n_points": 1027}},
        {"grid": {"omega_max_rad_s": 6.0e13}},
    ],
)
def test_another_spectrum_misses_and_replaces_the_kept_search(searches, edits):
    base, other = _spectrum(), _spectrum(**edits)
    for cfg in (base, other, base):  # the memo holds one spectrum: base is searched twice
        cfg.optimal_delay(cfg.build_jsa())
    assert len(searches) == 3


def test_search_that_raises_is_not_kept(searches, monkeypatch):
    cfg = _spectrum()
    jsa = cfg.build_jsa()
    scan = state_mod.overlap_scan
    monkeypatch.setattr(state_mod, "overlap_scan", lambda *args: scan(*args) * np.nan)
    for _ in range(2):
        with pytest.raises(DegenerateDataError, match="not finite"):
            cfg.optimal_delay(jsa)
    assert config._last_delay_search is None
    monkeypatch.setattr(state_mod, "overlap_scan", scan)
    cfg.optimal_delay(jsa)
    assert len(searches) == 3
