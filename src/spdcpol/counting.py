"""Gated-detector coincidence statistics.

Detectors open only during trigger-synchronized gates (width tau_g at rate
R_t); a coincidence is two clicks within tau_c. Uncorrelated singles N1, N2
arriving uniformly within a shared gate then produce accidentals at

    R_acc = alpha * (N1 * N2 / R_t) * min(1, 2 tau_c / tau_g).

alpha is an explicit calibration multiplier: the uniform-arrival model
overpredicts the level real gating electronics pass, and the quoted singles
do not pin down dead time or converter acceptance, so the scale is left to
calibration (alpha = 1 by default; the calibrated preset uses 0.026, the
value implied by the measured raw-versus-subtracted fringe contrast gap).

Counts are Poisson per setting. Per-gate pair probabilities are far below
one at the rates of interest, so Poisson and binomial-per-gate are
indistinguishable here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import DegenerateDataError
from .polarimetry import chsh_estimate
from .units import HBAR, omega_from_lambda

__all__ = [
    "DetectorModel",
    "derive_seed",
    "accidental_rate",
    "mean_counts",
    "poisson_counts",
    "chsh_from_counts",
    "efficiency_budget",
]


@dataclass(frozen=True)
class DetectorModel:
    """Gated single-photon detector pair and its counting electronics."""

    trigger_rate: float  # Hz
    gate_width: float  # s
    coincidence_window: float  # s
    efficiency_1: float = 0.25
    efficiency_2: float = 0.25
    singles_rate_1: float = 0.0  # counts/s, measured or configured
    singles_rate_2: float = 0.0
    accidental_calibration: float = 1.0  # alpha

    def __post_init__(self) -> None:
        if not self.trigger_rate > 0:  # written so that NaN fails, as in every check below
            raise ValueError(f"trigger_rate must be positive, got {self.trigger_rate}")
        if not self.gate_width > 0:
            raise ValueError(f"gate_width must be positive, got {self.gate_width}")
        if not self.coincidence_window > 0:
            raise ValueError(f"coincidence_window must be positive, got {self.coincidence_window}")
        for eff in (self.efficiency_1, self.efficiency_2):
            if not 0.0 <= eff <= 1.0:
                raise ValueError(f"detector efficiency {eff} outside [0, 1]")
        if not (self.singles_rate_1 >= 0 and self.singles_rate_2 >= 0):
            raise ValueError("singles rates must be nonnegative")
        if not self.accidental_calibration >= 0:
            raise ValueError("accidental_calibration must be nonnegative")

    @property
    def duty_cycle(self) -> float:
        """Fraction of the time the gates are open: trigger rate x gate width."""
        return self.trigger_rate * self.gate_width


def derive_seed(seed: int, *indices: int) -> int:
    """Deterministic child seed for (seed, run/setting indices)."""
    return int(np.random.SeedSequence([int(seed), *map(int, indices)]).generate_state(1)[0])


def accidental_rate(model: DetectorModel) -> float:
    """Accidental coincidence rate under uniform arrival within the gate."""
    window_factor = min(1.0, 2.0 * model.coincidence_window / model.gate_width)
    return (
        model.accidental_calibration
        * model.singles_rate_1
        * model.singles_rate_2
        / model.trigger_rate
        * window_factor
    )


def mean_counts(
    probs: ArrayLike, model: DetectorModel, pair_rate: float, integration_time: float
) -> NDArray[np.float64]:
    """Expected counts (pair_rate * p + R_acc) * T for coincidence probabilities p."""
    if pair_rate < 0:
        raise ValueError(f"pair_rate must be nonnegative, got {pair_rate}")
    if integration_time < 0:
        raise ValueError(f"integration time must be nonnegative, got {integration_time}")
    return (pair_rate * np.asarray(probs, dtype=float) + accidental_rate(model)) * integration_time


def poisson_counts(
    means: ArrayLike, seed: int | np.random.Generator, size: int | tuple[int, ...] | None = None
) -> NDArray[np.int64]:
    """Independent Poisson draws of shape `size`, the means broadcast to it (one
    draw per mean if size is None). Same seed, same output.

    A Generator is drawn from in place, so consecutive calls continue one
    stream: drawing rows in blocks gives the same counts as drawing them
    all at once.
    """
    try:
        return np.random.default_rng(seed).poisson(means, size)
    except ValueError as exc:  # a mean that is negative, NaN or beyond about 9.2e18
        raise DegenerateDataError(f"cannot draw Poisson counts: {exc}") from exc


def chsh_from_counts(counts: ArrayLike) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Signed CHSH sum S and its propagated standard deviation from raw counts.

    `counts` is a batch of tables of shape (..., 4, 4), none negative, in
    the layout of polarimetry.chsh_table; S and sigma_S are arrays of the
    leading shape, 0-d for one table. S and each correlation fraction E
    come from polarimetry.chsh_estimate. Each E comes with variance
    [(1-E)^2 (C1+C2) + (1+E)^2 (C3+C4)] / D^2 assuming independent Poisson
    counts; sigma_S adds the four block variances in quadrature.
    """
    c = np.asarray(counts, dtype=float)
    if np.any(c < 0):
        raise ValueError("counts must be nonnegative")
    s, e, plus, denom = chsh_estimate(c)
    minus = denom - plus  # C3 + C4 exactly: counts are integers below 2**53
    # float_power calls libm pow per element, as scalar `x ** 2` does; the array
    # `** 2` squares instead and would move the last bit of some sigma_S
    var = (
        np.float_power(1.0 - e, 2) * plus + np.float_power(1.0 + e, 2) * minus
    ) / np.float_power(denom, 2)
    v11, v12, v21, v22 = var
    sigma = np.sqrt(v11 + v12 + v21 + v22)
    return s, sigma


def efficiency_budget(
    pump_power_in: float,
    objective_T: float,
    facet_T: float,
    overlap: float,
    collection_T_per_arm: float,
    model: DetectorModel,
    measured_cc_rate: float,
    pump_lambda: float = 777.95e-9,
) -> tuple[float, float, float]:
    """Pump power reaching the guide, the unfolded pair rate and the conversion efficiency.

    power_in_guide folds the objective and facet transmissions and the
    pump-to-guided-mode overlap. The generated pair rate unfolds the measured
    coincidence rate through both detector efficiencies, both collection
    arms, the gate duty cycle, and the factor 1/2 lost to coincidence
    post-selection at the splitter. The conversion efficiency is that rate
    divided by the pump photon flux at pump_lambda.
    Returns (power_in_guide_W, pair_rate_hz, efficiency).
    """
    for name, t in (
        ("objective_T", objective_T),
        ("facet_T", facet_T),
        ("overlap", overlap),
        ("collection_T_per_arm", collection_T_per_arm),
    ):
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"{name} = {t} outside [0, 1]")
    if pump_power_in < 0:
        raise ValueError("pump power must be nonnegative")
    if measured_cc_rate < 0:
        raise ValueError("measured coincidence rate must be nonnegative")
    if collection_T_per_arm <= 0:
        raise ValueError("collection transmission must be positive to unfold a pair rate")
    power_in_guide = pump_power_in * objective_T * facet_T * overlap
    if power_in_guide <= 0:
        raise ValueError("no pump power reaches the guide; budget undefined")
    if model.duty_cycle <= 0:
        raise ValueError("gate duty cycle must be positive")
    if model.efficiency_1 <= 0 or model.efficiency_2 <= 0:
        raise ValueError("detector efficiencies must be positive to unfold a pair rate")
    detected = model.efficiency_1 * model.efficiency_2 * model.duty_cycle * 0.5
    pair_rate = measured_cc_rate / detected / collection_T_per_arm**2
    pump_flux = power_in_guide / (HBAR * omega_from_lambda(pump_lambda))
    return power_in_guide, pair_rate, pair_rate / pump_flux
