import collections
import copy
import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spdcpol import ConfigurationError, DegenerateDataError, config, spectral
from spdcpol import state as state_mod
from spdcpol.config import PRESETS, ScenarioConfig, base_config_dict, load_scenario
from spdcpol.counting import DetectorModel
from spdcpol.runners import run_budget, run_chsh, run_delay_scan, run_fringe


def test_defaults_load_and_build():
    cfg = load_scenario()
    disp = cfg.dispersion()
    assert_allclose(disp.length_L, 1.2e-3)
    assert_allclose(disp.lambda_deg, 1555.9e-9)
    assert_allclose(cfg.spectral_filter().fwhm_lambda, 45e-9)
    assert cfg.grid().n_points == 1025
    taus, step = cfg.delay_scan_fs()
    assert (taus[0], taus[-1], step) == (-178.0, 222.0, 0.5)
    assert cfg.counting()[0].singles_rate_1 == 3550.0
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
    assert cal.to_dict()["state"]["coherence"] == 0.91
    assert cal.to_dict()["detector"]["accidental_calibration"] == 0.026

    raw = load_scenario(preset="raw-visibility")
    assert raw.to_dict()["state"]["visibility_z"] == 0.80
    assert raw.to_dict()["detector"]["gate_width_ns"] == 20.0
    assert raw.counting()[1:] == (0.6, 120.0)

    off = load_scenario(preset="gvd-off")
    assert off.dispersion().gvd_D == 0.0


def test_preset_key_inside_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"preset": "paper-ideal", "run": {"seed": 7}}))
    cfg = load_scenario(config_path=path)
    assert cfg.to_dict()["state"]["coherence"] == 1.0
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


def _write(tmp_path, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return path


@pytest.mark.parametrize(
    "scenario, message",
    [
        ({"detector": {"gate_widht_ns": 1.0}}, "unknown config key: detector.gate_widht_ns"),
        ({"detectors": {}}, "unknown config key: detectors"),
        ({"filter": {"fwhm_nm": -3}}, "filter.fwhm_nm must be a number in (0, inf), got -3"),
        ({"state": {"visibility_z": 0.8}}, "state.visibility_z and visibility_d must be set together"),
        ({"run": 5}, "run must be an object, got 5"),
    ],
)
def test_scenario_config_checks_itself_on_construction(tmp_path, scenario, message):
    # with no further call, building it raises what load_scenario raises for the same scenario
    data = base_config_dict()
    config._merge(data, copy.deepcopy(scenario))
    path = _write(tmp_path, scenario)
    for build in (lambda: ScenarioConfig(data), lambda: load_scenario(config_path=path)):
        with pytest.raises(ConfigurationError) as exc:
            build()
        assert str(exc.value) == message


def test_scenario_config_without_a_block_names_it():
    data = base_config_dict()
    del data["budget"]
    with pytest.raises(ConfigurationError, match=r"^budget must be an object, got null$"):
        ScenarioConfig(data)


def test_flags_are_checked_in_the_scenario_that_runs(tmp_path):
    # a file value a flag overrides is never checked: the merged scenario is
    path = _write(tmp_path, {"run": {"seed": -1}})
    assert load_scenario(config_path=path, seed=5).seed() == 5
    with pytest.raises(ConfigurationError, match=r"^run\.seed must be an integer"):
        load_scenario(config_path=path)


@pytest.mark.parametrize(
    "scenario, flags, first",
    [  # the first error follows SCHEMA order, whether it came from the file or a flag
        ({"budget": {"pump_power_mw": -1}}, {"seed": -1}, "run.seed"),
        ({"run": {"runs": 0}}, {"seed": -1}, "run.seed"),
        ({"run": {"seed": -1}}, {"runs": 0}, "run.seed"),
        ({"dispersion": {"length_mm": -1}}, {"runs": 0}, "dispersion.length_mm"),
    ],
)
def test_first_error_of_file_and_flags_follows_schema_order(tmp_path, scenario, flags, first):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(first)} must be"):
        load_scenario(config_path=_write(tmp_path, scenario), **flags)


@pytest.mark.parametrize("key", ["seed", "runs"])
@pytest.mark.parametrize("value", [2.7, True, "abc"])
def test_seed_and_runs_flags_are_checked_as_given(key, value):
    # not converted first: int() made 2.7 seed 2 and True one run, and "abc" a bare ValueError
    with pytest.raises(ConfigurationError, match=rf"^run\.{key} must be an integer in"):
        load_scenario(**{key: value})


@pytest.mark.parametrize("seed", [None, 5])
def test_non_object_block_is_reported_with_or_without_a_flag(tmp_path, seed):
    with pytest.raises(ConfigurationError, match=r"^run must be an object, got 5$"):
        load_scenario(config_path=_write(tmp_path, {"run": 5}), seed=seed)


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


@pytest.mark.parametrize(
    "edits", [{}, {"filter": {"shape": "gaussian"}}, {"dispersion": {"length_mm": 12.0}}]
)
def test_grid_keeps_the_delay_phase_step_at_a_scan_delay_past_stop(edits):
    # np.arange(start, stop + step/2, step) can pass stop by up to half a step: this
    # lattice ends at 1680 fs. A grid sized for stop = 1400 fs has 4097 points at the
    # defaults, 0.021 rad of delay phase per step at 1680 fs.
    data = base_config_dict()
    for block, values in edits.items():
        data[block].update(values)
    data["run"]["delay_scan_fs"] = {"start": 0, "stop": 1400, "step": 840}
    cfg = ScenarioConfig(data=data)
    taus = [row[0] for row in run_delay_scan(cfg).tables["curve"]["rows"]]  # as scanned
    assert taus == [0.0, 840.0, 1680.0]
    grid = cfg.grid()
    assert 2.0 * grid.step * max(map(abs, taus)) * 1e-15 <= spectral.MAX_PHASE_STEP


def test_default_delay_scan_is_centred_on_half_walkoff():
    data = base_config_dict()
    data["dispersion"]["length_mm"] = 12.0  # delta*L/2 = 222.47 fs
    cfg = ScenarioConfig(data=data)
    taus, step = cfg.delay_scan_fs()
    assert (taus[0], taus[-1], step) == (22.5, 422.5, 0.5)
    assert taus.size == 801
    data["run"]["delay_scan_fs"] = {"start": -1.0, "stop": 1.0, "step": 0.5}
    taus, step = ScenarioConfig(data=data).delay_scan_fs()
    assert taus.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0] and step == 0.5
    data["run"]["delay_scan_fs"] = None
    data["dispersion"]["length_mm"] = 1e15  # a walk-off beyond the reach of a 0.5 fs lattice
    with pytest.raises(ConfigurationError, match="too large to centre"):
        ScenarioConfig(data=data).delay_scan_fs()
    data["dispersion"]["length_mm"] = float("inf")  # an infinite one fails the check first
    with pytest.raises(ConfigurationError, match=r"dispersion\.length_mm must be a number in"):
        ScenarioConfig(data=data)


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
    data = base_config_dict()
    data["run"]["chsh_theta_deg"] = t
    deg, rad = ScenarioConfig(data=data).chsh_settings()
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
    data = base_config_dict()
    data["run"]["chsh_angles_deg"] = angles
    deg, rad = ScenarioConfig(data=data).chsh_settings()
    assert deg == angles and all(type(v) is float for v in deg.values())
    assert rad.tolist() == [[math.radians(angles[k]) for k in deg]]


def test_echo_reloads_identically(tmp_path):
    cfg = load_scenario(preset="paper-calibrated", seed=31337)
    echo = cfg.to_dict()
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(echo))
    again = load_scenario(config_path=path)
    assert again.to_dict() == echo


def test_a_checked_scenario_builds_each_domain_object_once(monkeypatch):
    built = collections.Counter()
    for cls in (spectral.WaveguideDispersion, spectral.SpectralFilter, DetectorModel):

        def counted(self, *args, init=cls.__init__, **kwargs):
            built[type(self).__name__] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    cfg = load_scenario()
    for run in (run_delay_scan, run_fringe, run_chsh, run_budget):
        run(cfg)
    assert built == {"WaveguideDispersion": 1, "SpectralFilter": 1, "DetectorModel": 1}
    assert cfg.dispersion() is cfg.dispersion() and cfg.counting()[0] is cfg.counting()[0]


@pytest.mark.parametrize("preset", [None, "paper-calibrated"])  # a spectral, an override state
def test_a_checked_scenario_cannot_change_after_construction(preset):
    data = load_scenario(preset=preset).to_dict()
    cfg = ScenarioConfig(data=data)
    data["state"]["coherence"] = 0.3
    data["run"]["chsh_theta_deg"] = 10.0
    data["detector"]["accidental_calibration"] = 2.0
    echo = cfg.to_dict()
    echo["state"]["phi_bs_rad"] = 1.0
    echo["run"]["seed"] = 7
    cfg.resolve_state()[1]["state_source"] = "edited"
    fresh = ScenarioConfig(data=load_scenario(preset=preset).to_dict())
    assert cfg.to_dict() == fresh.to_dict()
    (state, info), (fresh_state, fresh_info) = cfg.resolve_state(), fresh.resolve_state()
    assert info == fresh_info and np.array_equal(state.rho, fresh_state.rho)
    assert run_chsh(cfg) == run_chsh(fresh)


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
def searches():
    """The number of delay searches run from here on, starting from an empty cache."""
    cache = state_mod._delay_search
    cache.cache_clear()
    return lambda: cache.cache_info().misses


def _optimal_delay(cfg):
    """state.optimal_delay of cfg's spectrum about its delta*L/2, as spectral_state runs it."""
    return state_mod.optimal_delay(cfg.build_jsa(), cfg.dispersion().half_walkoff)


def test_delay_search_runs_once_for_one_spectrum(searches):
    first, second = _spectrum(), _spectrum(run={"seed": 3})
    jsa = first.build_jsa()
    delay = _optimal_delay(first)
    assert _optimal_delay(second) is delay
    assert second.resolve_state()[1]["tau_fs"] == first.resolve_state()[1]["tau_fs"]
    # -0.0 equals 0.0, and its spectrum is the default's bit for bit: one search serves both
    signed_zero = _spectrum(dispersion={"delta0_per_m": -0.0})
    assert signed_zero.build_jsa().amplitude.tobytes() == jsa.amplitude.tobytes()
    assert _optimal_delay(signed_zero) is delay
    assert searches() == 1
    disp = first.dispersion()
    assert delay == state_mod.optimal_delay(jsa, disp.delta * disp.length_L / 2)


@pytest.mark.parametrize(
    "edits",
    [
        {"dispersion": {"length_mm": float(np.nextafter(1.2, 2.0))}},
        {"dispersion": {"delta0_per_m": 1.0}},  # another spectrum about the same delta*L/2
        {"dispersion": {"gvd_D_ps_nm_km": -800.0}},
        {"filter": {"shape": "gaussian"}},
        {"filter": {"fwhm_nm": 44.0}},
        {"grid": {"n_points": 1027}},
        {"grid": {"omega_max_rad_s": 6.0e13}},
    ],
)
def test_another_spectrum_misses_and_replaces_the_kept_search(searches, edits):
    base, other = _spectrum(), _spectrum(**edits)
    for cfg in (base, other, base):  # the cache holds one spectrum: base is searched twice
        _optimal_delay(cfg)
    assert searches() == 3


def test_search_that_raises_is_not_kept(searches, monkeypatch):
    cfg = _spectrum()
    scan = state_mod.overlap_scan
    monkeypatch.setattr(state_mod, "overlap_scan", lambda *args: scan(*args) * np.nan)
    for _ in range(2):
        with pytest.raises(DegenerateDataError, match="not finite"):
            _optimal_delay(cfg)
    assert state_mod._delay_search.cache_info().currsize == 0
    monkeypatch.setattr(state_mod, "overlap_scan", scan)
    _optimal_delay(cfg)
    assert searches() == 3


def test_spectral_state_searches_the_spectrum_it_is_given():
    # one dispersion and grid, two filters: b's spectrum passed to a is searched as b's
    def scenario(shape):
        data = base_config_dict()
        data["dispersion"]["delta0_per_m"] = -1.0e4
        data["filter"]["shape"] = shape
        data["grid"] = {"omega_max_rad_s": 1.3e14, "n_points": 4097}
        return ScenarioConfig(data=data)

    a, b = scenario("gaussian"), scenario("top_hat")
    assert a.spectral_state(a.build_jsa())[1]["tau_fs"] == 95.02
    tau_fs = a.spectral_state(b.build_jsa())[1]["tau_fs"]
    assert tau_fs == b.spectral_state(b.build_jsa())[1]["tau_fs"] == 22.25
