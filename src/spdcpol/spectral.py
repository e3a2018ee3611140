"""Joint spectral amplitude of a photon pair from type-II down-conversion.

A monochromatic pump at twice the degeneracy frequency produces strictly
anti-correlated pair frequencies omega0 +/- Omega, where the H (TE) photon
carries omega0 + Omega and the V (TM) photon omega0 - Omega. Expanding the
collinear phase mismatch to second order in the detuning,

    dk(Omega) = delta0 - delta * Omega - beta_plus * Omega**2,

with delta = 1/v_te - 1/v_tm the group-velocity mismatch and beta_plus the
group-velocity dispersion, one coefficient for both modes.  Integrating the
nonlinear interaction over the guide length L gives the sampled amplitude

    F(Omega) = sinc(phi) * exp(i * phi) * g(omega0 + Omega) * g(omega0 - Omega),
    phi(Omega) = dk(Omega) * L / 2,

where g is the amplitude transmission of the spectral filter in front of the
detectors.  The exp(i*phi) factor is what carries the temporal walk-off
information; dropping it silently erases the physics the delay line is
there to compensate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigurationError, DegenerateDataError
from .units import C_LIGHT, TWO_PI, omega_from_lambda

__all__ = [
    "WaveguideDispersion",
    "FILTER_SHAPES",
    "SpectralFilter",
    "SpectralGrid",
    "JointSpectralAmplitude",
    "beta2_from_d",
    "phase_mismatch",
    "filter_amplitude",
    "build_jsa",
    "default_grid",
]


def beta2_from_d(d: float, lam: float) -> float:
    """Convert the dispersion parameter D (s/m^2) at wavelength lam (m) to
    beta2 = -D * lam**2 / (2 pi c), in s^2/m."""
    if lam <= 0:
        raise ValueError(f"wavelength must be positive, got {lam}")
    return -d * lam**2 / (TWO_PI * C_LIGHT)


@dataclass(frozen=True)
class WaveguideDispersion:
    """Guided-mode dispersion data of the pair source.

    Group velocities are for the two cross-polarized down-converted modes
    (TE carries H, TM carries V). A single D applies to both polarizations;
    delta0 is a residual phase mismatch at degeneracy (1/m).
    """

    length_L: float  # m
    v_te: float  # m/s
    v_tm: float  # m/s
    gvd_D: float  # s/m^2 (D convention, negative = normal at telecom here)
    lambda_deg: float = 1555.9e-9  # m, degenerate pair wavelength
    delta0: float = 0.0  # 1/m

    def __post_init__(self) -> None:
        if not self.length_L > 0:  # written so that NaN fails, as in every check below
            raise ValueError(f"length_L must be positive, got {self.length_L}")
        if not (self.v_te > 0 and self.v_tm > 0):
            raise ValueError("group velocities must be positive")
        if not self.lambda_deg > 0:
            raise ValueError(f"lambda_deg must be positive, got {self.lambda_deg}")
        if not np.isfinite(self.gvd_D):
            raise ValueError("gvd_D must be finite")
        if not np.isfinite(self.delta0):
            raise ValueError("delta0 must be finite")

    @property
    def delta(self) -> float:
        """Group-velocity mismatch 1/v_te - 1/v_tm (s/m)."""
        return 1.0 / self.v_te - 1.0 / self.v_tm

    @property
    def half_walkoff(self) -> float:
        """delta*L/2 (s): the stationary-phase compensation delay, which centres
        the delay search."""
        return self.delta * self.length_L / 2

    @property
    def omega_deg(self) -> float:
        """Degenerate angular frequency omega0 (rad/s)."""
        return omega_from_lambda(self.lambda_deg)

    @property
    def beta2(self) -> float:
        """beta_plus, the GVD coefficient both polarizations share (s^2/m)."""
        return beta2_from_d(self.gvd_D, self.lambda_deg)


def phase_mismatch(omega, disp: WaveguideDispersion):
    """Accumulated phase phi(Omega) = dk(Omega) * L / 2 at detuning Omega.

    dk is expanded to second order around degeneracy:
    dk = delta0 - delta*Omega - beta_plus*Omega**2. Accepts scalars or arrays.
    """
    omega = np.asarray(omega, dtype=float)
    dk = disp.delta0 - disp.delta * omega - disp.beta2 * omega**2
    phi = dk * (disp.length_L / 2.0)
    return phi if phi.ndim else float(phi)


FILTER_SHAPES = ("top_hat", "gaussian")


@dataclass(frozen=True)
class SpectralFilter:
    """Band-pass filter, specified in wavelength like its datasheet.

    fwhm_lambda is the full width at half maximum of the *intensity*
    transmission. The gaussian profile is gaussian in wavelength; amplitude
    transmission is the square root of the intensity profile.
    """

    shape: str  # one of FILTER_SHAPES
    center_lambda: float  # m
    fwhm_lambda: float  # m

    def __post_init__(self) -> None:
        if self.shape not in FILTER_SHAPES:
            raise ValueError(f"shape must be one of {FILTER_SHAPES}, got {self.shape!r}")
        if not self.fwhm_lambda > 0:
            raise ValueError(f"fwhm_lambda must be positive, got {self.fwhm_lambda}")
        if not self.center_lambda > 0:
            raise ValueError(f"center_lambda must be positive, got {self.center_lambda}")
        if self.fwhm_lambda >= 2.0 * self.center_lambda:
            raise ValueError("filter band extends to non-positive wavelengths")

    def band_edges_omega(self) -> tuple[float, float]:
        """Half-maximum band edges in angular frequency (rad/s), (low, high)."""
        half = 0.5 * self.fwhm_lambda
        return omega_from_lambda(self.center_lambda + half), omega_from_lambda(self.center_lambda - half)


def filter_amplitude(omega_abs, filt: SpectralFilter):
    """Amplitude transmission g(omega) in [0, 1] at absolute frequency omega.

    top_hat: 1 inside the half-maximum band, 0 outside.
    gaussian: |g|^2 = exp(-4 ln2 ((lambda - center)/fwhm)^2), so the
    intensity hits 1/2 exactly half an FWHM from center.
    """
    omega_abs = np.asarray(omega_abs, dtype=float)
    if np.any(omega_abs <= 0):
        raise ValueError("filter_amplitude requires positive absolute frequencies")
    lam = TWO_PI * C_LIGHT / omega_abs
    u = (lam - filt.center_lambda) / filt.fwhm_lambda
    if filt.shape == "top_hat":
        g = (np.abs(u) <= 0.5).astype(float)
    else:
        g = np.exp(-2.0 * np.log(2.0) * u**2)
    return g if g.ndim else float(g)


@dataclass(frozen=True)
class SpectralGrid:
    """Symmetric detuning grid Omega_k, k = 0..n-1, with Omega = 0 a sample.

    Built from integer indices so that Omega_k == -Omega_{n-1-k} holds
    exactly in floating point, which the reflection Omega -> -Omega relies
    on downstream.
    """

    omega_max: float  # rad/s, half-width of the span
    n_points: int

    def __post_init__(self) -> None:
        if not self.omega_max > 0:
            raise ValueError(f"omega_max must be positive, got {self.omega_max}")
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValueError(f"n_points must be odd and >= 3, got {self.n_points}")

    @property
    def step(self) -> float:
        return self.omega_max / ((self.n_points - 1) // 2)

    @property
    def omegas(self) -> NDArray[np.float64]:
        half = (self.n_points - 1) // 2
        idx = np.arange(self.n_points) - half
        return idx * self.step


@dataclass(frozen=True)
class JointSpectralAmplitude:
    """Complex pair amplitude F(Omega_k) sampled on a symmetric grid."""

    grid: SpectralGrid
    amplitude: NDArray[np.complex128]

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitude, dtype=np.complex128)
        if amp.shape != (self.grid.n_points,):
            raise ValueError(
                f"amplitude shape {amp.shape} does not match grid ({self.grid.n_points},)"
            )
        object.__setattr__(self, "amplitude", amp)

    def reflected(self) -> NDArray[np.complex128]:
        """F(-Omega_k), read off by index reflection (no interpolation)."""
        return self.amplitude[::-1]


MAX_POINTS = 2**20  # cap on the points of a grid

# The default span stops this fraction inside a top-hat's support edge, so
# both end nodes pass the band test |u| <= 0.5 whatever the rounding of
# omega0 +- Omega; the band check allows the grid the same shortfall.
EDGE_RTOL = 1e-12

# A gaussian filter's default span ends where |g(omega0+W) g(omega0-W)|^2,
# and with it |F|^2, is at most this fraction of full transmission; it is
# smaller still beyond.
GAUSSIAN_TAIL = 1e-10

# Most phase, in rad, that one grid step may carry when the count is chosen:
# the sinc phase phi(Omega) and the delay phase 2*Omega*tau_max alike.
MAX_PHASE_STEP = 0.02


def _support_half_width(disp: WaveguideDispersion, filt: SpectralFilter) -> float:
    """Omega_c = min(omega0 - omega_lo, omega_hi - omega0): beyond +-Omega_c one of
    g(omega0 + Omega), g(omega0 - Omega) is outside the half-maximum band (0 for
    a top-hat). Not positive when omega0 is outside the band."""
    w_lo, w_hi = filt.band_edges_omega()
    omega0 = disp.omega_deg
    return min(omega0 - w_lo, w_hi - omega0)


def _default_span(disp: WaveguideDispersion, filt: SpectralFilter) -> float:
    """Half-width of the default grid: the support of g(omega0+Omega) g(omega0-Omega).

    A top-hat's is [-Omega_c, Omega_c]. For a gaussian, |g|^2 is
    exp(-4 ln2 u^2) with u = (lambda - center)/fwhm, and u+^2 + u-^2 >=
    (u- - u+)^2 / 2, so the product is at most GAUSSIAN_TAIL once the pair's
    wavelengths lambda(omega0 - W) - lambda(omega0 + W) = 4 pi c W /
    (omega0^2 - W^2) reach sep = fwhm * sqrt(ln(1/GAUSSIAN_TAIL) / (2 ln2)),
    which is at W = sep omega0^2 / (2 pi c + sqrt((2 pi c)^2 + (sep omega0)^2)).
    """
    if filt.shape == "top_hat":
        support = _support_half_width(disp, filt)
        if support <= 0.0:
            raise DegenerateDataError(
                "the top-hat band does not pass the degenerate wavelength "
                f"{disp.lambda_deg * 1e9:g} nm, so no pair passes it"
            )
        return support * (1.0 - EDGE_RTOL)
    sep = filt.fwhm_lambda * np.sqrt(np.log(1.0 / GAUSSIAN_TAIL) / (2.0 * np.log(2.0)))
    a, omega0 = TWO_PI * C_LIGHT, disp.omega_deg
    return float(sep * omega0**2 / (a + np.hypot(a, sep * omega0)))


def _grid_points(disp: WaveguideDispersion, omega_max: float, tau_max: float) -> int:
    """Smallest 2**k + 1 points (k >= 2) on [-omega_max, omega_max] at which a step
    carries at most MAX_PHASE_STEP of sinc phase and of delay phase 2*Omega*tau_max.

    phi = c1*Omega + c2*Omega^2 + const, so its steepest slope on the span,
    |c1| + 2|c2|W, is read off phase_mismatch at -W and W without delta0, which
    only adds a constant (and would drown the terms in Omega in rounding).
    Raises DegenerateDataError when that takes more than MAX_POINTS points.
    """
    phi_lo, phi_hi = phase_mismatch(np.array([-omega_max, omega_max]), replace(disp, delta0=0.0))
    slope = (0.5 * abs(phi_hi - phi_lo) + abs(phi_hi + phi_lo)) / omega_max
    steps = max(slope, 2.0 * tau_max) * omega_max / MAX_PHASE_STEP  # per half-span
    finite = math.isfinite(steps)  # NaN and inf: no count is enough
    half = 2
    while finite and half < steps:
        half *= 2
    if not finite or 2 * half + 1 > MAX_POINTS:
        needed = f"2**{half.bit_length()} + 1" if finite else "unboundedly many"
        raise DegenerateDataError(
            f"the spectral grid needs {needed} points, more than {MAX_POINTS}, to keep the "
            f"sinc and delay phases under {MAX_PHASE_STEP} rad per step (a set grid.n_points "
            "is used as given)"
        )
    return 2 * half + 1


def default_grid(
    disp: WaveguideDispersion,
    filt: SpectralFilter,
    tau_max: float,
    omega_max: float | None = None,
    n_points: int | None = None,
) -> SpectralGrid:
    """The grid for this spectrum and delays up to tau_max (s) in magnitude.

    omega_max and n_points are used as given; a None one is chosen to fit the
    integrand. The span is the support of g(omega0+Omega) g(omega0-Omega)
    (_default_span): on a top-hat's, the jump at the band edge falls on the
    end nodes and the trapezoid rule converges at O(step^2). The count is
    the smallest 2**k + 1 that keeps the sinc and delay phases per step under
    MAX_PHASE_STEP (_grid_points).
    """
    if omega_max is None:
        omega_max = _default_span(disp, filt)
    if n_points is None:
        n_points = _grid_points(disp, omega_max, tau_max)
    return SpectralGrid(omega_max, n_points)


def _check_band_inside_grid(disp: WaveguideDispersion, filt: SpectralFilter, grid: SpectralGrid) -> None:
    support = _support_half_width(disp, filt)
    if support * (1.0 - EDGE_RTOL) > grid.omega_max:
        raise ConfigurationError(
            "spectral grid narrower than the pair spectrum: g(omega0+Omega) g(omega0-Omega) "
            f"passes |Omega| up to {support:.3e} rad/s, beyond omega_max={grid.omega_max:.3e}"
        )


def build_jsa(
    disp: WaveguideDispersion, filt: SpectralFilter, grid: SpectralGrid
) -> JointSpectralAmplitude:
    """Sample F(Omega) = sinc(phi) * exp(i phi) * g(omega0+Omega) * g(omega0-Omega).

    sinc(x) = sin(x)/x with sinc(0) = 1. Raises ConfigurationError when the
    grid span does not reach the support of g(omega0+Omega) g(omega0-Omega)
    (to within EDGE_RTOL).
    """
    _check_band_inside_grid(disp, filt, grid)
    omega0 = disp.omega_deg
    if grid.omega_max >= omega0:
        raise ConfigurationError(
            "grid span reaches non-positive absolute frequencies; "
            f"omega_max={grid.omega_max:.3e} >= omega0={omega0:.3e}"
        )
    om = grid.omegas
    phi = phase_mismatch(om, disp)
    # np.sinc is sin(pi x)/(pi x); rescale to sin(x)/x
    pm = np.sinc(phi / np.pi) * np.exp(1j * phi)
    # om is exactly antisymmetric and omega0 - x == omega0 + (-x), so g(omega0 - Omega)
    # is g(omega0 + Omega) reversed, bit for bit
    g = filter_amplitude(omega0 + om, filt)
    return JointSpectralAmplitude(grid=grid, amplitude=pm * (g * g[::-1]))
