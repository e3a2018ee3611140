"""Scenario configuration: JSON in, validated domain objects out.

One JSON file describes one scenario. A "preset" key (or --preset on the
command line) expands a named bundle first; explicit keys in the file then
override it, and command-line --seed/--runs override both. Unknown keys are
rejected by full path so typos die loudly instead of silently running the
defaults.

All interface units are the quoted lab units (nm, fs, ns, mW, degrees,
ps/(nm km)); conversion to SI happens exactly once, in the accessors here.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from . import spectral, state as state_mod
from .counting import DetectorModel
from .errors import ConfigurationError
from .polarimetry import ChshSettings
from .units import deg_to_rad, fs, nm, ns, to_fs

__all__ = ["PRESETS", "ScenarioConfig", "load_scenario", "base_config_dict"]


_BASE: dict[str, Any] = {
    "dispersion": {
        "length_mm": 1.2,
        "v_te_m_per_s": 8.98e7,
        "v_tm_m_per_s": 9.01e7,
        "gvd_D_ps_nm_km": -790.0,
        "lambda_deg_nm": 1555.9,
        "delta0_per_m": 0.0,
    },
    "filter": {
        "shape": "top_hat",
        "center_nm": 1550.0,
        "fwhm_nm": 45.0,
    },
    "grid": {
        "omega_max_rad_s": None,  # null -> 3x the filter's angular half-width
        "n_points": 8193,
    },
    "state": {
        "tau_fs": "optimize",  # number, or "optimize"
        "phi_bs_rad": 0.0,
        "coherence": None,  # when set, bypass the spectral pipeline
        "visibility_z": None,  # with visibility_d: two-visibility state
        "visibility_d": None,
    },
    "detector": {
        "trigger_rate_hz": 1.0e5,
        "gate_width_ns": 100.0,
        "coincidence_window_ns": 3.0,
        "efficiency_1": 0.25,
        "efficiency_2": 0.25,
        "singles_rate_1_hz": 3550.0,
        "singles_rate_2_hz": 6200.0,
        "accidental_calibration": 1.0,
    },
    "run": {
        "pair_rate_hz": 6.0,
        "integration_time_s": 60.0,
        "seed": 12345,
        "runs": 1,
        "fringe_theta1_deg": [0.0, 45.0],
        "fringe_theta2_deg": {"start": 0.0, "stop": 360.0, "step": 10.0},
        "s_curve_theta_deg": {"start": -90.0, "stop": 90.0, "step": 2.5},
        "chsh_theta_deg": 22.5,
        "chsh_angles_deg": None,  # optional {theta1, theta1p, theta2, theta2p}
        "delay_scan_fs": {"start": -200.0, "stop": 200.0, "step": 0.5},
    },
    "budget": {
        "pump_power_mw": 13.0,
        "objective_transmission": 0.70,
        "facet_transmission": 0.73,
        "modal_overlap": 0.20,
        "collection_transmission_per_arm": 0.10,
        "measured_cc_rate_hz": 0.3,
        "pump_lambda_nm": 777.95,
    },
}

PRESETS: dict[str, dict[str, Any]] = {
    # perfect coherence, no accidentals: the reference curves
    "paper-ideal": {
        "state": {"coherence": 1.0},
        "detector": {"accidental_calibration": 0.0},
    },
    # coherence and accidental level matched to the measured fringe contrasts
    "paper-calibrated": {
        "state": {"coherence": 0.91},
        "detector": {"accidental_calibration": 0.026},
    },
    # dispersion switched off; delay optimum collapses to the pure walk-off value
    "gvd-off": {
        "dispersion": {"gvd_D_ps_nm_km": 0.0},
        "detector": {"accidental_calibration": 0.0},
    },
    # state carrying the uncorrected fringe contrasts; accidental degradation
    # is folded into the state itself, so no extra accidentals on top
    "raw-visibility": {
        "state": {"visibility_z": 0.80, "visibility_d": 0.77},
        "detector": {
            "accidental_calibration": 0.0,
            "gate_width_ns": 20.0,
            "singles_rate_1_hz": 600.0,
            "singles_rate_2_hz": 500.0,
        },
        "run": {"pair_rate_hz": 0.6, "integration_time_s": 120.0},
    },
}


def base_config_dict() -> dict[str, Any]:
    """Deep copy of the built-in default scenario."""
    return copy.deepcopy(_BASE)


def _reject_constant(name: str) -> None:
    raise ConfigurationError(f"config values must be finite numbers, got {name}")


def _check_unknown_keys(data: dict[str, Any], reference: dict[str, Any], path: str = "") -> None:
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in reference:
            raise ConfigurationError(f"unknown config key: {where}")
        if isinstance(reference[key], dict) and reference[key] and isinstance(value, dict):
            _check_unknown_keys(value, reference[key], where)


def _merge(base: dict[str, Any], override: dict[str, Any]) -> None:
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = value


def _integer(value: Any, where: str, minimum: int) -> int:
    """A JSON integer (not a bool or a float) of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigurationError(f"{where} must be an integer of at least {minimum}, got {value!r}")
    return value


def _angle_grid(block: dict[str, Any], where: str) -> np.ndarray:
    try:
        start, stop, step = float(block["start"]), float(block["stop"]), float(block["step"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"{where} must hold numeric start/stop/step: {exc}") from exc
    if step <= 0 or stop <= start:
        raise ConfigurationError(f"{where}: need step > 0 and stop > start")
    return np.arange(start, stop + 0.5 * step, step)


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario; accessors build the SI domain objects."""

    data: dict[str, Any]

    # -- spectral ------------------------------------------------------------
    def dispersion(self) -> spectral.WaveguideDispersion:
        d = self.data["dispersion"]
        try:
            return spectral.WaveguideDispersion(
                length_L=float(d["length_mm"]) * 1e-3,
                v_te=float(d["v_te_m_per_s"]),
                v_tm=float(d["v_tm_m_per_s"]),
                gvd_D=float(d["gvd_D_ps_nm_km"]) * 1e-6,  # ps/(nm km) -> s/m^2
                lambda_deg=nm(float(d["lambda_deg_nm"])),
                delta0=float(d["delta0_per_m"]),
            )
        except ValueError as exc:
            raise ConfigurationError(f"dispersion: {exc}") from exc

    def spectral_filter(self) -> spectral.SpectralFilter:
        f = self.data["filter"]
        try:
            return spectral.SpectralFilter(
                shape=f["shape"],
                center_lambda=nm(float(f["center_nm"])),
                fwhm_lambda=nm(float(f["fwhm_nm"])),
            )
        except ValueError as exc:
            raise ConfigurationError(f"filter: {exc}") from exc

    def grid(self) -> spectral.SpectralGrid:
        g = self.data["grid"]
        n_points = _integer(g["n_points"], "grid.n_points", 3)
        try:
            if g["omega_max_rad_s"] is None:
                return spectral.default_grid(self.spectral_filter(), n_points=n_points)
            return spectral.SpectralGrid(float(g["omega_max_rad_s"]), n_points)
        except ValueError as exc:
            raise ConfigurationError(f"grid: {exc}") from exc

    def build_jsa(self) -> spectral.JointSpectralAmplitude:
        return spectral.build_jsa(self.dispersion(), self.spectral_filter(), self.grid())

    # -- state ---------------------------------------------------------------
    def phi_bs(self) -> float:
        return float(self.data["state"]["phi_bs_rad"])

    def configured_delay(self) -> float | None:
        """state.tau_fs in seconds, or None for "optimize"."""
        tau = self.data["state"]["tau_fs"]
        if tau == "optimize":
            return None
        if isinstance(tau, bool) or not isinstance(tau, (int, float)):
            raise ConfigurationError(f'state.tau_fs must be a number or "optimize", got {tau!r}')
        return fs(float(tau))

    def resolve_state(self) -> tuple[state_mod.TwoQubitState, dict[str, Any]]:
        """Two-qubit state plus a scalar report of how it was obtained."""
        s = self.data["state"]
        info: dict[str, Any] = {}
        try:
            if s["visibility_z"] is not None or s["visibility_d"] is not None:
                if s["visibility_z"] is None or s["visibility_d"] is None:
                    raise ConfigurationError(
                        "state: visibility_z and visibility_d must be set together"
                    )
                v_z, v_d = float(s["visibility_z"]), float(s["visibility_d"])
                info["state_source"] = "visibility_override"
                info["visibility_z"] = v_z
                info["visibility_d"] = v_d
                return state_mod.visibility_state(v_z, v_d, self.phi_bs()), info
            if s["coherence"] is not None:
                c = float(s["coherence"])
                info["state_source"] = "coherence_override"
                info["coherence"] = c
                return state_mod.post_selected_state(c, self.phi_bs()), info
        except ValueError as exc:
            raise ConfigurationError(f"state: {exc}") from exc

        disp = self.dispersion()
        jsa = self.build_jsa()
        tau = self.configured_delay()
        if tau is None:
            delay = state_mod.optimal_delay(jsa, disp.delta * disp.length_L / 2)
            info["tau_source"] = "optimized"
        else:
            delay = state_mod.DelaySetting(tau=tau)
            info["tau_source"] = "configured"
        overlap = state_mod.OverlapResult(state_mod.overlap_scan(jsa, delay.tau, 0.0, 1)[0])
        info["state_source"] = "spectral_model"
        info["tau_fs"] = to_fs(delay.tau)
        info["v_int_abs"] = overlap.magnitude
        return state_mod.post_selected_state(overlap, self.phi_bs()), info

    # -- detector / run --------------------------------------------------------
    def detector(self) -> DetectorModel:
        d = self.data["detector"]
        try:
            return DetectorModel(
                trigger_rate=float(d["trigger_rate_hz"]),
                gate_width=ns(float(d["gate_width_ns"])),
                coincidence_window=ns(float(d["coincidence_window_ns"])),
                efficiency_1=float(d["efficiency_1"]),
                efficiency_2=float(d["efficiency_2"]),
                singles_rate_1=float(d["singles_rate_1_hz"]),
                singles_rate_2=float(d["singles_rate_2_hz"]),
                accidental_calibration=float(d["accidental_calibration"]),
            )
        except ValueError as exc:
            raise ConfigurationError(f"detector: {exc}") from exc

    def pair_rate(self) -> float:
        return float(self.data["run"]["pair_rate_hz"])

    def integration_time(self) -> float:
        return float(self.data["run"]["integration_time_s"])

    def seed(self) -> int:
        return _integer(self.data["run"]["seed"], "run.seed", 0)

    def runs(self) -> int:
        return _integer(self.data["run"]["runs"], "run.runs", 1)

    def fringe_theta1(self) -> list[float]:
        angles = self.data["run"]["fringe_theta1_deg"]
        if not isinstance(angles, list):
            raise ConfigurationError(f"run.fringe_theta1_deg must be a list, got {angles!r}")
        try:
            return [deg_to_rad(float(t)) for t in angles]
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"run.fringe_theta1_deg: {exc}") from exc

    def fringe_theta2_grid(self) -> np.ndarray:
        grid_deg = _angle_grid(self.data["run"]["fringe_theta2_deg"], "run.fringe_theta2_deg")
        return np.radians(grid_deg)

    def s_curve_grid(self) -> np.ndarray:
        grid_deg = _angle_grid(self.data["run"]["s_curve_theta_deg"], "run.s_curve_theta_deg")
        return np.radians(grid_deg)

    def delay_scan_grid_s(self) -> tuple[np.ndarray, float]:
        """Configured delays (s) and their step (s)."""
        block = self.data["run"]["delay_scan_fs"]
        return fs(1.0) * _angle_grid(block, "run.delay_scan_fs"), fs(float(block["step"]))

    def chsh_settings(self) -> ChshSettings:
        angles = self.data["run"]["chsh_angles_deg"]
        if angles is None:
            return ChshSettings.canonical(deg_to_rad(float(self.data["run"]["chsh_theta_deg"])))
        try:
            return ChshSettings(
                theta1=deg_to_rad(float(angles["theta1"])),
                theta1p=deg_to_rad(float(angles["theta1p"])),
                theta2=deg_to_rad(float(angles["theta2"])),
                theta2p=deg_to_rad(float(angles["theta2p"])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"run.chsh_angles_deg: {exc}") from exc

    # -- budget ----------------------------------------------------------------
    def budget_inputs(self) -> dict[str, float]:
        b = self.data["budget"]
        return {
            "pump_power_in": float(b["pump_power_mw"]) * 1e-3,
            "objective_T": float(b["objective_transmission"]),
            "facet_T": float(b["facet_transmission"]),
            "overlap": float(b["modal_overlap"]),
            "collection_T_per_arm": float(b["collection_transmission_per_arm"]),
            "measured_cc_rate": float(b["measured_cc_rate_hz"]),
            "pump_lambda": nm(float(b["pump_lambda_nm"])),
        }

    def to_dict(self) -> dict[str, Any]:
        """Fully resolved echo, suitable for byte-identical re-runs."""
        return copy.deepcopy(self.data)

    def validate(self) -> None:
        """Construct every domain object once so bad values fail at load."""
        self.dispersion()
        self.spectral_filter()
        self.grid()
        self.detector()
        self.fringe_theta1()
        self.fringe_theta2_grid()
        self.s_curve_grid()
        self.delay_scan_grid_s()
        self.chsh_settings()
        self.budget_inputs()
        if self.pair_rate() < 0:
            raise ConfigurationError("run.pair_rate_hz must be nonnegative")
        if self.integration_time() <= 0:
            raise ConfigurationError("run.integration_time_s must be positive")
        self.seed()
        self.runs()
        s = self.data["state"]
        if s["coherence"] is not None and s["visibility_z"] is not None:
            raise ConfigurationError(
                "state: coherence and visibility_z/visibility_d are mutually exclusive"
            )
        self.configured_delay()


def load_scenario(
    config_path: str | Path | None = None,
    preset: str | None = None,
    seed: int | None = None,
    runs: int | None = None,
) -> ScenarioConfig:
    """Assemble a scenario: defaults <- preset <- file <- CLI overrides."""
    data = base_config_dict()

    file_dict: dict[str, Any] = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigurationError(f"config file not found: {path}")
        try:
            file_dict = json.loads(path.read_text(), parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(file_dict, dict):
            raise ConfigurationError(f"config file {path} must hold a JSON object")

    preset_name = preset if preset is not None else file_dict.pop("preset", None)
    if preset is not None and "preset" in file_dict:
        file_dict.pop("preset")
    if preset_name is not None:
        if preset_name not in PRESETS:
            raise ConfigurationError(
                f"unknown preset {preset_name!r}; available: {', '.join(sorted(PRESETS))}"
            )
        _merge(data, copy.deepcopy(PRESETS[preset_name]))

    _check_unknown_keys(file_dict, _BASE)
    _merge(data, file_dict)

    if seed is not None:
        data["run"]["seed"] = int(seed)
    if runs is not None:
        data["run"]["runs"] = int(runs)

    cfg = ScenarioConfig(data=data)
    cfg.validate()
    return cfg
