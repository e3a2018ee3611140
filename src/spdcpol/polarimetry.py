"""Analyzer projections, coincidence fringes, and CHSH evaluation.

Projection conventions (watch the arm asymmetry, sign slips here flip
fringes silently):

    arm 1: |p1> = cos(t1)|H> - sin(t1)|V>
    arm 2: |p2> = sin(t2)|H> + cos(t2)|V>

so the ideal (|HV> + |VH>)/sqrt(2) pair gives coincidence probability
cos^2(t1 + t2) / 2. Orthogonal settings are t + 90 degrees. The
correlation fraction for one pair of settings is

    E = [C(t1,t2) + C(t1p,t2p) - C(t1p,t2) - C(t1,t2p)] / [sum of the four]

with tp = t + 90 deg, and the CHSH sum is

    S = |E(t1,t2) - E(t1,t2') + E(t1',t2) + E(t1',t2')|.

A CHSH setting is one row (t1, t1', t2, t2') and K settings one (K, 4)
array. The single-angle family t1 = 0, t2 = t, t1' = -2t, t2' = 3t of
canonical_settings satisfies t = t2 - t1 = t2' + t1' = -t2 - t1' and turns
the ideal signed sum into 3 cos(2t) - cos(6t), maximal (2 sqrt 2) at
t = 22.5 degrees.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import ConfigurationError, DegenerateDataError

__all__ = [
    "coincidence_probs",
    "fit_fringe",
    "canonical_settings",
    "chsh_arm_angles",
    "chsh_table",
    "chsh_estimate",
]

_QUARTER_TURN = 0.5 * np.pi


def coincidence_probs(
    rho: NDArray[np.complex128], theta1: ArrayLike, theta2: ArrayLike
) -> NDArray[np.float64]:
    """Probabilities <p1 p2| rho |p1 p2> of the 4x4 density matrix rho in the basis
    (HH, HV, VH, VV), broadcast over the two angle arrays (radians)."""
    t1, t2 = np.broadcast_arrays(np.asarray(theta1, dtype=float), np.asarray(theta2, dtype=float))
    c1, s1 = np.cos(t1), np.sin(t1)
    c2, s2 = np.cos(t2), np.sin(t2)
    v = np.stack([c1 * s2, c1 * c2, -s1 * s2, -s1 * c2], axis=-1)
    return np.real(np.einsum("...i,ij,...j->...", v, rho, v))


# Scale-free 4 det(G) / n^3 of the fit design's Gram matrix G: 1 on a uniform full
# turn, about 1e-31 where every 2 theta is 0 or pi and the design has rank 2.
DESIGN_DET_FLOOR = 1e-6


# Keyed by the angles' bytes and kept for the last grid only: a runner fits
# every fringe on one grid, so one inverse serves all of its fits.
@functools.lru_cache(maxsize=1)
def _design_pinv(theta_bytes: bytes) -> NDArray[np.float64]:
    """Pseudo-inverse G^-1 D^T of the design D = [1, cos 2theta, sin 2theta], shape (3, n), from
    math.fsum sums, cofactors and elementwise products: no CPU-chosen BLAS kernel touches a fit."""
    theta = np.frombuffer(theta_bytes, dtype=np.float64)
    d = (np.ones_like(theta), np.cos(2.0 * theta), np.sin(2.0 * theta))
    g = np.array([[math.fsum(x * y) for y in d] for x in d])
    cof = np.cross(g[[1, 2, 0]], g[[2, 0, 1]])  # row i: g_i+1 x g_i+2, G's cofactors
    det = math.fsum(g[0] * cof[0])
    if not 4.0 * det > DESIGN_DET_FLOOR * theta.size**3:
        raise DegenerateDataError(
            f"fringe-fit design is singular on these angles (4 det(G)/n^3 < {DESIGN_DET_FLOOR:g})"
        )
    pinv = (cof[:, :1] * d[0] + cof[:, 1:2] * d[1] + cof[:, 2:] * d[2]) / det
    pinv.flags.writeable = False  # shared by every later fit on these angles
    return pinv


def fit_fringe(theta: NDArray[np.float64], values: NDArray[np.float64]) -> NDArray[np.float64]:
    """Visibility b / a of the least-squares fit a + b cos(2 theta + phi), along the last axis.

    `values` holds one fringe over the angles `theta` (shape (n,)) or a
    batch of them (shape (..., n)); every fringe is fitted by one product
    with the fixed pseudo-inverse of the [1, cos 2theta, sin 2theta]
    design, computed once for consecutive fits on one grid. The einsum,
    unlike a BLAS matmul whose kernel follows the batch shape, gives a
    fringe the same fit whatever batch it is in.

    Returns an array of the leading shape, 0-d for one fringe, with the
    visibility unclamped, so count-level noise propagates into the estimate
    without bias. Raises DegenerateDataError for a non-positive offset a and
    for angles on which the design is singular, such as a 90-degree step;
    callers enforce their own grid rules (check_theta2_grid).
    """
    theta = np.asarray(theta, dtype=float)
    values = np.asarray(values, dtype=float)
    if theta.ndim != 1 or values.shape[-1:] != theta.shape:
        raise ConfigurationError(
            f"angle and value arrays differ in shape: {theta.shape} vs {values.shape}"
        )
    coef = np.einsum("...n,kn->...k", values, _design_pinv(theta.tobytes()))
    a, p, q = np.moveaxis(coef, -1, 0)
    if np.any(a <= 0.0):
        raise DegenerateDataError(
            f"fringe offset {np.min(a):.3e} is not positive; nothing to normalize by"
        )
    return np.hypot(p, q) / a


def check_theta2_grid(grid: NDArray[np.float64]) -> None:
    """Raise ConfigurationError unless the theta2 grid (radians) holds at least 4
    points, spans a full turn and gives fit_fringe a non-singular design. The
    scenario checks its fringe grid with this once, at load."""
    if grid.size < 4:
        raise ConfigurationError(f"theta2 grid needs at least 4 points, got {grid.size}")
    if grid.max() - grid.min() < 2.0 * np.pi - 1e-9:
        raise ConfigurationError("theta2 grid must span at least 360 degrees")
    try:
        _design_pinv(grid.tobytes())
    except DegenerateDataError as exc:
        raise ConfigurationError(f"theta2 grid rejected: {exc}") from None


# --- CHSH tables ----------------------------------------------------------------

# Row/column order of a 4x4 table: arm-1 settings (t1, t1+90, t1', t1'+90) by
# arm-2 settings (t2, t2+90, t2', t2'+90). Row j holds the flat index
# 4 * row + column of entry j (C_pp, C_oo, C_op, C_po) of each block:
# E(t1, t2), E(t1, t2'), E(t1', t2), E(t1', t2').
_BLOCK_CELLS = np.array([[0, 2, 8, 10], [5, 7, 13, 15], [4, 6, 12, 14], [1, 3, 9, 11]])


def canonical_settings(theta: ArrayLike) -> NDArray[np.float64]:
    """Settings (0, -2t, t, 3t) of the single-angle family, one row per angle t, in t's unit."""
    t = np.asarray(theta, dtype=float)
    return np.stack([np.zeros_like(t), -2.0 * t, t, 3.0 * t], -1)


def chsh_arm_angles(
    settings: ArrayLike, quarter: float
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Arm-1 (t1, t1+q, t1', t1'+q) and arm-2 (t2, t2+q, t2', t2'+q) analyzer angles
    of the 4x4 tables of settings (..., 4), q the quarter turn in their unit."""
    t1, t1p, t2, t2p = np.moveaxis(np.asarray(settings, dtype=float), -1, 0)
    q = quarter
    return np.stack([t1, t1 + q, t1p, t1p + q], -1), np.stack([t2, t2 + q, t2p, t2p + q], -1)


def chsh_table(rho: NDArray[np.complex128], settings: ArrayLike) -> NDArray[np.float64]:
    """Coincidence probabilities of rho's 4x4 tables of K settings (K, 4) in radians, (K, 4, 4)."""
    if not np.all(np.isfinite(settings)):
        raise ValueError("CHSH angles must be finite")
    a_angles, b_angles = chsh_arm_angles(settings, _QUARTER_TURN)
    return coincidence_probs(rho, a_angles[:, :, None], b_angles[:, None, :])


def chsh_estimate(
    tables: ArrayLike,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Signed CHSH sums of 4x4 tables of probabilities or counts, shape (..., 4, 4).

    Block k of a table (E(t1, t2), E(t1, t2'), E(t1', t2), E(t1', t2'))
    gives the correlation fraction

        E = (C_pp + C_oo - C_op - C_po) / D,  D = C_pp + C_oo + C_op + C_po,

    each summed left to right. Returns (S, E, C_pp + C_oo, D): the signed
    sums S = E11 - E12 + E21 + E22 of the leading shape, then three arrays
    of shape (4, ...), block first.
    """
    c = np.asarray(tables, dtype=float)
    if c.shape[-2:] != (4, 4):
        raise ValueError(f"CHSH tables must be 4x4, got shape {c.shape}")
    # (4 entries, 4 blocks, ...): gathered from the transpose, each entry is contiguous
    c_pp, c_oo, c_op, c_po = c.reshape(-1, 16).T[_BLOCK_CELLS].reshape(4, 4, *c.shape[:-2])
    same = c_pp + c_oo
    denom = same + c_op + c_po
    if np.any(denom <= 0.0):
        raise DegenerateDataError("coincidence block has an all-zero denominator")
    e = (same - c_op - c_po) / denom
    e11, e12, e21, e22 = e
    return e11 - e12 + e21 + e22, e, same, denom
