"""Scenario configuration: JSON in, checked domain objects out.

One JSON file describes one scenario. A "preset" key (or --preset on the
command line) expands a named bundle first; explicit keys in the file then
override it, and command-line --seed/--runs override both.

SCHEMA declares every key once. A ScenarioConfig checks a private copy of its
data against it when it is built, so an unknown key, a wrong type, an
out-of-range value or a scan of more than MAX_POINTS points fails there, naming
the key's full path. It holds the domain objects it built; accessors return them.
Interface units are the quoted lab units (nm, fs, ns, mW, degrees,
ps/(nm km)), named in the keys; conversion to SI happens once, here, but for
the angles records echo: their accessors return the degrees as configured.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import spectral, state as state_mod
from .counting import DetectorModel
from .errors import ConfigurationError
from .polarimetry import canonical_settings, check_theta2_grid
from .units import fs, to_fs

__all__ = ["PRESETS", "SCHEMA", "ScenarioConfig", "load_scenario", "base_config_dict"]

MAX_POINTS = spectral.MAX_POINTS  # cap on grid.n_points and on the points of every scan

# The default run.delay_scan_fs: this half-width about the point of the
# lattice of this step nearest delta*L/2 (both fs)
DELAY_SCAN_HALF_WIDTH_FS = 200.0
DELAY_SCAN_STEP_FS = 0.5

Check = Callable[[Any, str], None]  # (value, key path); raises ConfigurationError


def _is_number(value: Any) -> bool:
    """A finite JSON number: not true/false (type bool), NaN, +-inf or an int beyond float range."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _check_object(value: Any, checks: dict[str, Check], where: str) -> None:
    """value must be a JSON object of no other keys than checks, each passing its check."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where} must be an object, got {json.dumps(value)}")
    for key in value:
        if key not in checks:
            raise ConfigurationError(f"unknown config key: {where}.{key}")
    for key, check in checks.items():
        check(value.get(key), f"{where}.{key}")


def number(interval: str | None = "(-inf, inf)", *also: Any, integer: bool = False) -> Check:
    """A number (an integer if integer) in interval, written like "[0, 1]", or one of also.

    With interval None only the values in also are allowed.
    """
    kinds = [f"{'an integer' if integer else 'a number'} in {interval}"] if interval else []
    kinds += map(json.dumps, also)

    def check(value: Any, where: str) -> None:
        if value in also:
            return
        if interval and _is_number(value) and (type(value) is int or not integer):
            low, high = map(float, interval[1:-1].split(","))
            if (low <= value if interval[0] == "[" else low < value) and (
                value <= high if interval[-1] == "]" else value < high
            ):
                return
        raise ConfigurationError(f"{where} must be {' or '.join(kinds)}, got {json.dumps(value)}")

    return check


def _steps_are_floats(reach: float, step: float) -> bool:
    """|reach| / step < 2**52: the float spacing out to |reach| is finer than step, so a
    lattice of this step that reaches no further has distinct float points."""
    return abs(reach) / step < 2**52


def scan(value: Any, where: str) -> None:
    """{start, stop, step} with stop > start, step > 0, at most MAX_POINTS points and
    a step coarser than the float spacing at both ends."""
    _check_object(value, dict.fromkeys(("start", "stop", "step"), number()), where)
    start, stop, step = value["start"], value["stop"], value["step"]
    if step <= 0 or stop <= start:
        raise ConfigurationError(f"{where}: need step > 0 and stop > start")
    # np.arange(start, stop + step / 2, step) has ceil of this many points; inf fails, too
    if not (stop + 0.5 * step - start) / step <= MAX_POINTS:
        raise ConfigurationError(f"{where} spans more than {MAX_POINTS} points")
    if not _steps_are_floats(max(abs(start), abs(stop)), step):
        raise ConfigurationError(f"{where}: step {step:g} is too fine for the floats at its ends")


def _scan_values(block: dict[str, Any]) -> np.ndarray:
    start, stop, step = float(block["start"]), float(block["stop"]), float(block["step"])
    return np.arange(start, stop + 0.5 * step, step)


def theta2_scan(value: Any, where: str) -> None:
    """A scan whose angles (degrees) polarimetry.check_theta2_grid accepts."""
    scan(value, where)
    try:
        check_theta2_grid(np.radians(_scan_values(value)))
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None


def optional_scan(value: Any, where: str) -> None:
    """null, or a scan."""
    if value is not None:
        scan(value, where)


_POINTS = number(f"[3, {MAX_POINTS}]", None, integer=True)


def grid_points(value: Any, where: str) -> None:
    """null, or an odd number of grid points in [3, MAX_POINTS]."""
    _POINTS(value, where)
    if value is not None and value % 2 == 0:
        raise ConfigurationError(f"{where} must be odd, got {json.dumps(value)}")


CHSH_ANGLES = ("theta1", "theta1p", "theta2", "theta2p")


def chsh_angles(value: Any, where: str) -> None:
    """null, or the four analyzer angles of a CHSH measurement."""
    if value is not None:
        _check_object(value, dict.fromkeys(CHSH_ANGLES, number()), where)


def chsh_theta(value: Any, where: str) -> None:
    """A number t whose canonical CHSH angles (0, -2t, t, 3t) are all finite."""
    number()(value, where)
    if not math.isfinite(3.0 * value):
        raise ConfigurationError(
            f"{where} must be a number whose CHSH angle 3t is finite, got {json.dumps(value)}"
        )


def fringe_table_name(theta1_deg: float) -> str:
    """Name of the fringe table at arm-1 angle theta1_deg (degrees)."""
    return f"theta1_{theta1_deg:g}"


def fringe_angles(value: Any, where: str) -> None:
    """A non-empty list of angles (degrees) whose fringe tables have distinct names."""
    if not isinstance(value, list) or not value or not all(map(_is_number, value)):
        raise ConfigurationError(
            f"{where} must be a non-empty list of numbers, got {json.dumps(value)}"
        )
    names = [fringe_table_name(v) for v in value]
    if len(set(names)) < len(names):
        raise ConfigurationError(f"{where}: two angles give one fringe table name in {names}")


class Key(NamedTuple):
    """One scenario key. A key that is one field of a domain object names that
    field and the factor from its unit to SI (None: passed through as is)."""

    default: Any
    check: Check
    field: str | None = None
    si: float | None = 1.0


POSITIVE = number("(0, inf)")
NONNEGATIVE = number("[0, inf)")

SCHEMA: dict[str, dict[str, Key]] = {
    "dispersion": {
        "length_mm": Key(1.2, POSITIVE, "length_L", 1e-3),
        "v_te_m_per_s": Key(8.98e7, POSITIVE, "v_te"),
        "v_tm_m_per_s": Key(9.01e7, POSITIVE, "v_tm"),
        "gvd_D_ps_nm_km": Key(-790.0, number(), "gvd_D", 1e-6),  # ps/(nm km) -> s/m^2
        "lambda_deg_nm": Key(1555.9, POSITIVE, "lambda_deg", 1e-9),
        "delta0_per_m": Key(0.0, number(), "delta0"),
    },
    "filter": {
        "shape": Key("top_hat", number(None, *spectral.FILTER_SHAPES), "shape", None),
        "center_nm": Key(1550.0, POSITIVE, "center_lambda", 1e-9),
        "fwhm_nm": Key(45.0, POSITIVE, "fwhm_lambda", 1e-9),
    },
    "grid": {  # null: chosen by spectral.default_grid
        "omega_max_rad_s": Key(None, number("(0, inf)", None)),  # null: the filter's support
        "n_points": Key(None, grid_points),  # null: the fewest 2**k + 1 the phases allow
    },
    "state": {
        "tau_fs": Key("optimize", number("(-inf, inf)", "optimize")),
        "phi_bs_rad": Key(0.0, number()),
        "coherence": Key(None, number("[-1, 1]", None)),  # when set, bypass the spectral pipeline
        "visibility_z": Key(None, number("[-1, 1]", None)),  # with visibility_d: two visibilities
        "visibility_d": Key(None, number("[0, 1]", None)),
    },
    "detector": {
        "trigger_rate_hz": Key(1.0e5, POSITIVE, "trigger_rate"),
        "gate_width_ns": Key(100.0, POSITIVE, "gate_width", 1e-9),
        "coincidence_window_ns": Key(3.0, POSITIVE, "coincidence_window", 1e-9),
        "efficiency_1": Key(0.25, number("[0, 1]"), "efficiency_1"),
        "efficiency_2": Key(0.25, number("[0, 1]"), "efficiency_2"),
        "singles_rate_1_hz": Key(3550.0, NONNEGATIVE, "singles_rate_1"),
        "singles_rate_2_hz": Key(6200.0, NONNEGATIVE, "singles_rate_2"),
        "accidental_calibration": Key(1.0, NONNEGATIVE, "accidental_calibration"),
    },
    "run": {
        "pair_rate_hz": Key(6.0, NONNEGATIVE),
        "integration_time_s": Key(60.0, POSITIVE),
        "seed": Key(12345, number("[0, inf)", integer=True)),
        "runs": Key(1, number("[1, inf)", integer=True)),
        "fringe_theta1_deg": Key([0.0, 45.0], fringe_angles),
        "fringe_theta2_deg": Key({"start": 0.0, "stop": 360.0, "step": 10.0}, theta2_scan),
        "s_curve_theta_deg": Key({"start": -90.0, "stop": 90.0, "step": 2.5}, scan),
        "chsh_theta_deg": Key(22.5, chsh_theta),
        "chsh_angles_deg": Key(None, chsh_angles),
        "delay_scan_fs": Key(None, optional_scan),  # null: centred on delta*L/2
    },
    "budget": {  # budget_inputs: the keyword arguments of counting.efficiency_budget
        "pump_power_mw": Key(13.0, NONNEGATIVE, "pump_power_in", 1e-3),
        "objective_transmission": Key(0.70, number("[0, 1]"), "objective_T"),
        "facet_transmission": Key(0.73, number("[0, 1]"), "facet_T"),
        "modal_overlap": Key(0.20, number("[0, 1]"), "overlap"),
        "collection_transmission_per_arm": Key(0.10, number("[0, 1]"), "collection_T_per_arm"),
        "measured_cc_rate_hz": Key(0.3, NONNEGATIVE, "measured_cc_rate"),
        "pump_lambda_nm": Key(777.95, POSITIVE, "pump_lambda", 1e-9),
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
    """The built-in default scenario, a fresh copy on each call."""
    return {
        block: {name: copy.deepcopy(key.default) for name, key in keys.items()}
        for block, keys in SCHEMA.items()
    }


def _merge(base: dict[str, Any], override: dict[str, Any]) -> None:
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = value


class ScenarioConfig:
    """Fully resolved scenario: a private copy of its data and the SI domain objects it built."""

    def __init__(self, data: dict[str, Any]) -> None:
        """Check a private copy of data against SCHEMA and the rules that span keys; then
        build and keep each domain object, whose own checks catch the ranges that span
        keys (the filter band against its centre, visibility_d against visibility_z)."""
        self._data = data = copy.deepcopy(data)
        for block, keys in SCHEMA.items():
            _check_object(data.get(block), {n: key.check for n, key in keys.items()}, block)
        for block in data:
            if block not in SCHEMA:
                raise ConfigurationError(f"unknown config key: {block}")
        s = data["state"]
        if (s["visibility_z"] is None) != (s["visibility_d"] is None):
            raise ConfigurationError("state.visibility_z and visibility_d must be set together")
        if s["coherence"] is not None and s["visibility_z"] is not None:
            raise ConfigurationError(
                "state: coherence and visibility_z/visibility_d are mutually exclusive"
            )
        self._phi_bs = float(s["phi_bs_rad"])
        built = []
        for block, build in (
            ("dispersion", spectral.WaveguideDispersion),
            ("filter", spectral.SpectralFilter),
            ("detector", DetectorModel),
            ("state", None),  # the override state, or None
        ):
            try:
                built.append(self._override_state() if build is None else build(**self._si(block)))
            except ValueError as exc:
                raise ConfigurationError(f"{block}: {exc}") from exc
        self._dispersion, self._filter, self._detector, self._override = built

    def _si(self, block: str) -> dict[str, Any]:
        """The block as the keyword arguments of its domain object, in SI units."""
        values = self._data[block]
        return {
            key.field: values[name] if key.si is None else float(values[name]) * key.si
            for name, key in SCHEMA[block].items()
        }

    # -- spectral ------------------------------------------------------------
    def dispersion(self) -> spectral.WaveguideDispersion:
        return self._dispersion

    def spectral_filter(self) -> spectral.SpectralFilter:
        return self._filter

    def grid(self) -> spectral.SpectralGrid:
        """spectral.default_grid for the delays this config can ask for, up to _tau_max()."""
        g = self._data["grid"]
        omega_max = g["omega_max_rad_s"]
        return spectral.default_grid(
            self._dispersion,
            self._filter,
            self._tau_max(),
            None if omega_max is None else float(omega_max),
            g["n_points"],
        )

    def _tau_max(self) -> float:
        """Largest |delay| (s) a command on this config evaluates the overlap at: the
        delay search's reach |delta*L/2| + DELAY_HALF_WIDTH, the first and last delays
        of the delay scan's lattice and a configured state.tau_fs. From the config
        alone, so that every command builds one grid."""
        taus_fs, _ = self.delay_scan_fs()
        tau = self._data["state"]["tau_fs"]
        return max(
            abs(self._dispersion.half_walkoff) + state_mod.DELAY_HALF_WIDTH,
            fs(abs(float(taus_fs[0]))),
            fs(abs(float(taus_fs[-1]))),
            0.0 if tau == "optimize" else fs(abs(float(tau))),
        )

    def build_jsa(self) -> spectral.JointSpectralAmplitude:
        return spectral.build_jsa(self._dispersion, self._filter, self.grid())

    # -- state ---------------------------------------------------------------
    def _override_state(self) -> tuple[state_mod.TwoQubitState, dict[str, Any]] | None:
        """The state set directly by the visibility pair or the coherence, if either is."""
        s = self._data["state"]
        if s["visibility_z"] is not None:
            v_z, v_d = float(s["visibility_z"]), float(s["visibility_d"])
            info = {"state_source": "visibility_override", "visibility_z": v_z, "visibility_d": v_d}
            return state_mod.visibility_state(v_z, v_d, self._phi_bs), info
        if s["coherence"] is not None:
            c = float(s["coherence"])
            info = {"state_source": "coherence_override", "coherence": c}
            return state_mod.post_selected_state(c, self._phi_bs), info
        return None

    def resolve_state(self) -> tuple[state_mod.TwoQubitState, dict[str, Any]]:
        """Two-qubit state plus a scalar report of how it was obtained."""
        if self._override is not None:  # a copy of info, so that callers cannot edit the kept one
            return self._override[0], dict(self._override[1])
        return self.spectral_state(self.build_jsa(), self._data["state"]["tau_fs"])

    def spectral_state(
        self, jsa: spectral.JointSpectralAmplitude, tau: float | str = "optimize"
    ) -> tuple[state_mod.TwoQubitState, dict[str, Any]]:
        """The post-selected state of jsa, a spectrum of this scenario's dispersion, at
        delay tau (fs) or, for "optimize", at state.optimal_delay about its delta*L/2;
        plus a scalar report of the delay, |V_int| there, its error estimate and the
        grid size."""
        optimize = tau == "optimize"
        center = self._dispersion.half_walkoff
        delay = state_mod.optimal_delay(jsa, center) if optimize else fs(float(tau))
        v_int = state_mod.overlap_scan(jsa, delay, 0.0, 1)[0]
        info = {
            "tau_source": "optimized" if optimize else "configured",
            "state_source": "spectral_model",
            # as configured, or as optimal_delay reports it: to 0.01 fs
            "tau_fs": round(to_fs(delay), 2) if optimize else float(tau),
            "v_int_abs": abs(v_int),
            "v_int_abs_error_estimate": state_mod.halving_error(jsa, delay, v_int),
            "grid_points": jsa.grid.n_points,
        }
        return state_mod.post_selected_state(v_int, self._phi_bs), info

    # -- detector / run --------------------------------------------------------
    def counting(self) -> tuple[DetectorModel, float, float]:
        """What the expected counts take: (detector, pair rate Hz, integration time s)."""
        run = self._data["run"]
        return self._detector, float(run["pair_rate_hz"]), float(run["integration_time_s"])

    def seed(self) -> int:
        return self._data["run"]["seed"]

    def runs(self) -> int:
        return self._data["run"]["runs"]

    def fringe_theta1_deg(self) -> list[float]:
        return [float(t) for t in self._data["run"]["fringe_theta1_deg"]]

    def fringe_theta2_deg(self) -> np.ndarray:
        return _scan_values(self._data["run"]["fringe_theta2_deg"])

    def s_curve_theta_deg(self) -> np.ndarray:
        return _scan_values(self._data["run"]["s_curve_theta_deg"])

    def delay_scan_fs(self) -> tuple[np.ndarray, float]:
        """The delay scan's lattice (fs) and its step (fs): run.delay_scan_fs, or for
        null DELAY_SCAN_HALF_WIDTH_FS either side of the point of the
        DELAY_SCAN_STEP_FS lattice nearest delta*L/2."""
        block = self._data["run"]["delay_scan_fs"]
        if block is None:
            half_walkoff_fs = to_fs(self._dispersion.half_walkoff)
            if not _steps_are_floats(half_walkoff_fs, DELAY_SCAN_STEP_FS):
                raise ConfigurationError(
                    f"delta*L/2 = {half_walkoff_fs:.3e} fs is too large to centre "
                    "the default run.delay_scan_fs on; set it"
                )
            center = round(half_walkoff_fs / DELAY_SCAN_STEP_FS) * DELAY_SCAN_STEP_FS
            half = DELAY_SCAN_HALF_WIDTH_FS
            block = {"start": center - half, "stop": center + half, "step": DELAY_SCAN_STEP_FS}
        return _scan_values(block), float(block["step"])

    def chsh_settings(self) -> tuple[dict[str, float], np.ndarray]:
        """The CHSH setting (theta1, theta1p, theta2, theta2p): its angles in degrees
        as configured, and its (1, 4) row in radians. The canonical family of
        t = run.chsh_theta_deg is built from t in each unit."""
        run = self._data["run"]
        if run["chsh_angles_deg"] is None:
            t = float(run["chsh_theta_deg"])
            deg, rad = canonical_settings(t), canonical_settings([math.radians(t)])
        else:
            deg = np.array([float(run["chsh_angles_deg"][name]) for name in CHSH_ANGLES])
            rad = np.radians(deg[None])
        return dict(zip(CHSH_ANGLES, deg.tolist())), rad

    # -- budget ----------------------------------------------------------------
    def budget_inputs(self) -> dict[str, float]:
        return self._si("budget")

    def to_dict(self) -> dict[str, Any]:
        """Fully resolved echo, suitable for byte-identical re-runs."""
        return copy.deepcopy(self._data)


def load_scenario(
    config_path: str | Path | None = None,
    preset: str | None = None,
    seed: int | None = None,
    runs: int | None = None,
) -> ScenarioConfig:
    """Assemble a scenario, defaults <- preset <- file <- CLI overrides, and build it."""
    data = base_config_dict()

    file_dict: dict[str, Any] = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigurationError(f"config file not found: {path}")
        try:
            file_dict = json.loads(path.read_text())
        except OSError as exc:  # a file that exists but cannot be read
            raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            # RecursionError: arrays or objects nested deeper than json.loads can follow
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(file_dict, dict):
            raise ConfigurationError(f"config file {path} must hold a JSON object")

    file_preset = file_dict.pop("preset", None)
    preset_name = preset if preset is not None else file_preset
    if preset_name is not None:
        if not isinstance(preset_name, str) or preset_name not in PRESETS:
            raise ConfigurationError(
                f"unknown preset {preset_name!r}; available: {', '.join(sorted(PRESETS))}"
            )
        _merge(data, copy.deepcopy(PRESETS[preset_name]))

    _merge(data, file_dict)
    for key, value in (("seed", seed), ("runs", runs)):
        if value is not None and isinstance(data["run"], dict):  # else the check rejects run
            data["run"][key] = value  # as given: the check rejects 2.7, True and "abc"
    return ScenarioConfig(data=data)
