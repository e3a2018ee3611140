import os

import numpy as np
import pytest

from spdcpol import SpectralFilter, WaveguideDispersion, default_grid
from spdcpol.state import DELAY_HALF_WIDTH


@pytest.fixture
def paper_disp():
    """Dispersion record of the modeled source (telecom type-II guide)."""
    return WaveguideDispersion(
        length_L=1.2e-3,
        v_te=8.98e7,
        v_tm=9.01e7,
        gvd_D=-7.9e-4,
        lambda_deg=1555.9e-9,
    )


@pytest.fixture
def top_hat_filter():
    return SpectralFilter(shape="top_hat", center_lambda=1550e-9, fwhm_lambda=45e-9)


@pytest.fixture
def gaussian_filter():
    return SpectralFilter(shape="gaussian", center_lambda=1550e-9, fwhm_lambda=45e-9)


def random_density_matrix(rng: np.random.Generator, n: int = 4) -> np.ndarray:
    """Ginibre-sampled density matrix: full rank, Haar-ish, always valid."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_density_batch(rng: np.random.Generator, count: int, n: int = 4) -> np.ndarray:
    a = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    rho = a @ np.conj(np.swapaxes(a, 1, 2))
    tr = np.einsum("kii->k", rho).real
    return rho / tr[:, None, None]


def norm_sq(jsa):
    """Trapezoid-rule integral of |F|^2 over jsa's grid."""
    return float(np.trapezoid(np.abs(jsa.amplitude) ** 2, dx=jsa.grid.step))


def search_grid(disp, filt, **kwargs):
    """default_grid for the delay search about delta*L/2: delays up to
    |delta*L/2| + DELAY_HALF_WIDTH."""
    tau_max = abs(disp.half_walkoff) + DELAY_HALF_WIDTH
    return default_grid(disp, filt, tau_max, **kwargs)


def on_glibc():
    try:
        return "glibc" in os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, TypeError, ValueError):
        return False
