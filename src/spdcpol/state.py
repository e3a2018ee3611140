"""Post-selected two-qubit polarization state of the photon pair.

The H photon always carries omega0 + Omega and the V photon omega0 - Omega,
in both post-selected terms (H in arm 1, V in arm 2, and vice versa). A
delay tau applied to the V component before the beam splitter therefore
advances one term against the other by exp(2i Omega tau) once the global
carrier phase exp(i omega0 tau) is dropped. Tracing out frequency leaves a
single spectral overlap number

    V_int(tau) = Int F(Omega) F*(-Omega) exp(2i Omega tau) dOmega
                 / Int |F(Omega)|^2 dOmega,

and the post-selected polarization state is the X-state with populations
1/2 on HV and VH and coherence V_int * exp(i phi_bs) / 2 between them.
Both-photons-same-port events are dropped analytically and the norm
rescaled, which is what coincidence post-selection does to the statistics.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigurationError, DegenerateDataError
from .spectral import JointSpectralAmplitude, SpectralGrid

__all__ = [
    "TwoQubitState",
    "overlap_scan",
    "halving_error",
    "optimal_delay",
    "post_selected_state",
    "visibility_state",
    "concurrence",
]

_HH, _HV, _VH, _VV = 0, 1, 2, 3

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_EIG_FLOOR = -1e-10

DELAY_HALF_WIDTH = 200e-15  # s, optimal_delay search window about delta*L/2
DELAY_STEP = 0.1e-15  # s, optimal_delay scan lattice


@dataclass(frozen=True)
class TwoQubitState:
    """4x4 density matrix in the ordered basis (HH, HV, VH, VV).

    First slot is arm 1, second is arm 2. Validated on construction:
    Hermitian and unit trace to 1e-12, eigenvalues >= -1e-10. Holds its own
    read-only copy of rho, so the checks keep holding after construction.
    """

    rho: NDArray[np.complex128]

    def __post_init__(self) -> None:
        rho = np.array(self.rho, dtype=np.complex128)
        if rho.shape != (4, 4):
            raise ValueError(f"rho must be 4x4, got shape {rho.shape}")
        if not np.allclose(rho, rho.conj().T, rtol=0.0, atol=HERMITICITY_ATOL):
            raise ValueError("rho is not Hermitian within 1e-12")
        tr = np.trace(rho)
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace(rho) = {tr} is not 1 within 1e-12")
        eigs = np.linalg.eigvalsh(rho)
        if eigs.min() < PSD_EIG_FLOOR:
            raise ValueError(f"rho is not positive semidefinite: min eigenvalue {eigs.min():.3e}")
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)


# From this many bytes up, numpy evaluates `x * tmp`, where tmp is a
# temporary array and x is not, in tmp's buffer as `tmp * x` (temporary
# elision). Complex multiply is not bitwise commutative on every build
# (numpy 2.4 on AVX-512 is not), and the scan's outputs were fixed by the
# expressions `a * np.exp(...)` and `x * fft(chirp)`, so _times_temporary
# keeps the operand order they had.
_NUMPY_ELIDE_BYTES = 256 * 1024

# overlap_scan's buffers by name, kept from call to call. Each grows only
# when a larger scan needs it; smaller scans take prefix views. A scan
# writes every view before it reads it, so nothing carries from one call to
# the next, not even from a call that raised part-way. Being one per
# process, the buffers serve one scan at a time: threads must not scan
# concurrently.
_WORKSPACE: dict[str, NDArray[Any]] = {}


def _buffer(name: str, length: int, dtype: type = complex, new: Any = np.empty) -> NDArray[Any]:
    """The first `length` elements of workspace buffer `name`; new(length, dtype=dtype)
    replaces a buffer that is missing or shorter."""
    buf = _WORKSPACE.get(name)
    if buf is None or buf.size < length:
        buf = _WORKSPACE[name] = new(length, dtype=dtype)
    return buf[:length]


# glibc's dynamic malloc rule (trim at twice the mmap threshold), started at 4 MiB, not at the
# first large free: pocketfft's per-transform scratch (to 2**18 points) reuses resident pages.
_malloc_set = False  # True once a process has applied it


def _keep_freed_heap() -> None:
    """Apply that rule once per process through mallopt; a no-op off glibc or without mallopt."""
    global _malloc_set
    if _malloc_set:
        return
    _malloc_set = True
    try:
        if "glibc" not in os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.pythonapi.mallopt  # the process's own symbols, libc's among them
    except (AttributeError, OSError, TypeError, ValueError):
        return
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD; each returns 0 if refused, which changes no value
    mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


def _times_temporary(
    x: NDArray[np.complex128], tmp: NDArray[np.complex128], out: NDArray[np.complex128]
) -> NDArray[np.complex128]:
    """x * tmp into out, in the operand order numpy uses when tmp is a temporary."""
    if tmp.nbytes >= _NUMPY_ELIDE_BYTES:
        return np.multiply(tmp, x, out=out)
    return np.multiply(x, tmp, out=out)


def overlap_scan(
    jsa: JointSpectralAmplitude, tau0: float, step: float, n: int
) -> NDArray[np.complex128]:
    """Normalized overlap V_int at the n delays tau0 + j*step, j = 0..n-1.

    Trapezoid quadrature on the JSA grid. With Omega_k = p*dOmega (p = k - h)
    and tau_j = tau_c + q*step about the scan's mid-point tau_c, the delay
    phase 2*Omega_k*tau_j is theta*p*q plus a term in p alone, with
    theta = 2*dOmega*step. Writing pq = (p^2 + q^2 - (q - p)^2) / 2 turns the
    sum over k into a convolution with a chirp, done by FFT in
    O((N + n) log(N + n)) instead of the O(N n) direct sum: Bluestein's
    chirp-z transform (Rabiner, Schafer & Rader, IEEE Trans. Audio
    Electroacoust. 17, 1969). Counting p and q from the middle of their
    ranges keeps the chirp phases, and with them the rounding, small.

    One complex exponential per distinct value: the delay phase is odd in
    Omega and the three chirps are even and conjugate to each other, so each
    is exponentiated for one sign of its argument and the rest mirrored or
    conjugated, bit for bit the values exp gives for them: (N + 1)/2 +
    (N + n)/2 exponentials for odd n and N + 1 + (N + n - 1)/2 for even n,
    against 3N + 2n - 1 for every value.

    Intermediates go to buffers reused from call to call (_WORKSPACE); the
    returned array is always a new one.
    """
    f = jsa.amplitude
    m = f.size
    real = _buffer("real", m + n - 1, float)
    scratch = _buffer("scratch", m + n - 1)
    w = _buffer("weights", m, float)
    w.fill(1.0)
    w[[0, -1]] = 0.5  # trapezoid weights; the grid step cancels in the ratio
    norm = np.sum(np.multiply(w, np.square(np.abs(f, out=real[:m]), out=real[:m]), out=real[:m]))
    if norm <= 0.0:
        raise DegenerateDataError("joint spectral amplitude has zero norm")
    h, c = (m - 1) // 2, 0.5 * (n - 1)
    ramp = _buffer("ramp", m + n - 1, float, np.arange)  # 0.0, 1.0, 2.0, ...
    # a = w * f * conj(F(-Omega)) * exp(2i * Omega * (tau0 + c * step)), one step at a time
    a = np.multiply(w, f, out=_buffer("v", m))  # in v until the chirp transform replaces it
    np.multiply(a, np.conjugate(jsa.reflected(), out=scratch[:m]), out=a)
    # Omega_k = (k - h) * dOmega, as SpectralGrid.omegas computes it, for k >= h; the
    # delay phase is odd in Omega, so k < h takes the conjugate of its mirror image
    om = np.multiply(ramp[: h + 1], jsa.grid.step, out=real[: h + 1])
    phase = np.multiply(np.multiply(2j, om, out=scratch[h:m]), tau0 + c * step, out=scratch[h:m])
    np.conjugate(np.exp(phase, out=phase)[:0:-1], out=scratch[:h])
    np.multiply(a, scratch[:m], out=a)
    if n == 1:  # the chirp-z transform at a single point is the plain sum
        return a.sum(keepdims=True) / norm
    _keep_freed_heap()
    theta = 2.0 * jsa.grid.step * step
    size = 1 << (m + n - 2).bit_length()  # >= N + n - 1: no wrap onto the outputs
    fft = np.fft  # loaded on first use; import numpy does not load it
    # p, q and d = q - p are multiples of 1/2 far below 2**53: as floats they and
    # their squares are exact, as in the integer arithmetic of np.arange they stand for.
    # The chirp at d, which runs over k - h - c for k = 0 .. N + n - 2, is even in d and
    # its d run from -(h + c) to h + c: exponentiated for d >= 0, from k = mid on, and
    # mirrored onto k < mid.
    mid = h + n // 2
    d2 = np.square(np.add(ramp[: m + n - 1 - mid], c % 1.0, out=real[mid:]), out=real[mid:])
    chirp = scratch
    np.exp(np.multiply(-0.5j * theta, d2, out=chirp[mid:]), out=chirp[mid:])
    chirp[:mid] = chirp[::-1][:mid]
    # Conjugating exp(ix) gives exp(-ix) bit for bit but for the sign of a zero
    # imaginary part, where x is 0: at p = 0 and q = 0, and everywhere when theta is 0.
    # The pre- and post-chirp take exp's own value there.
    at_zero = np.exp(np.multiply(0.5j * theta, 0.0))
    pre = _buffer("u", size)[:m]  # in u until the transform replaces it
    if n % 2 == 0:  # p is an integer but d is not: p >= 0 exponentiated, mirrored
        p2 = np.square(ramp[: h + 1], out=real[: h + 1])
        np.exp(np.multiply(0.5j * theta, p2, out=pre[h:]), out=pre[h:])
        pre[:h] = pre[::-1][:h]
    else:  # the chirp at d = p, conjugated
        np.conjugate(chirp[n // 2 : n // 2 + m], out=pre)
        pre[h] = at_zero
        if theta == 0.0:
            pre.fill(at_zero)
    u = fft.fft(_times_temporary(a, pre, out=a), size, out=_buffer("u", size))
    v = fft.fft(chirp, size, out=_buffer("v", size))
    conv = fft.ifft(_times_temporary(u, v, out=u), out=u)[m - 1 : m - 1 + n]
    post = np.conjugate(chirp[h : h + n], out=v[:n])  # the chirp at d = q, conjugated
    if n % 2:
        post[n // 2] = at_zero
    if theta == 0.0:
        post.fill(at_zero)
    return np.multiply(post, conv, out=post) / norm


def halving_error(jsa: JointSpectralAmplitude, tau: float, v_int: complex) -> float | None:
    """Estimated error of |V_int(tau)| = |v_int| on jsa's grid.

    The trapezoid rule converges at O(step^2) on the default spans, whose end
    nodes carry a top-hat's jump or a gaussian's cut-off tail, so Richardson's
    (|V| - |V on every other node|) / 3, taken in magnitude, estimates the
    error. None when (N - 1)/2 is odd: every other node of such a grid does
    not include Omega = 0.
    """
    grid = jsa.grid
    if grid.n_points % 4 != 1:
        return None
    half = SpectralGrid(grid.omega_max, (grid.n_points + 1) // 2)
    coarse = overlap_scan(JointSpectralAmplitude(half, jsa.amplitude[::2]), tau, 0.0, 1)[0]
    return abs(abs(v_int) - abs(coarse)) / 3.0


# Keyed by the search's exact inputs, the spectrum's grid and bytes and the centre,
# and kept for the last one only: the commands of one process that share a spectrum
# share one search. A search that raises is not kept, so it raises again when repeated.
@functools.lru_cache(maxsize=1)
def _delay_search(grid: SpectralGrid, amplitude: bytes, center: float) -> float:
    """optimal_delay of the spectrum (grid, amplitude bytes) about a finite center."""
    jsa = JointSpectralAmplitude(grid, np.frombuffer(amplitude, dtype=np.complex128))
    half = round(DELAY_HALF_WIDTH / DELAY_STEP)
    first = round(center / DELAY_STEP) - half
    mags = np.abs(overlap_scan(jsa, first * DELAY_STEP, DELAY_STEP, 2 * half + 1))
    if not np.all(np.isfinite(mags)):
        raise DegenerateDataError("|V_int| is not finite on the delay search window")
    i = int(np.argmax(mags))
    tau_star = (first + i) * DELAY_STEP
    if i in (0, mags.size - 1):
        raise DegenerateDataError(
            f"|V_int| peaks at {tau_star * 1e15:.1f} fs, the edge of delta*L/2 +- 200 fs"
        )
    y0, y1, y2 = mags[i - 1 : i + 2]
    denom = y0 - 2.0 * y1 + y2
    if denom < 0.0:
        tau_star += 0.5 * DELAY_STEP * (y0 - y2) / denom
    return round(tau_star / 1e-17) * 1e-17  # report to 0.01 fs


def optimal_delay(jsa: JointSpectralAmplitude, center: float) -> float:
    """Delay (s; positive delays V) maximizing |V_int| within DELAY_HALF_WIDTH of center.

    center is the stationary-phase estimate delta*L/2. The window is scanned
    on the DELAY_STEP lattice (multiples of 0.1 fs); the vertex of a parabola
    through the best three points is reported, rounded to 0.01 fs. Scanning
    tolerates the ripples the sinc lobes put on |V_int|, which defeat
    derivative methods. An optimum on the window edge, or a non-finite
    |V_int| anywhere in it, raises DegenerateDataError rather than being
    reported.
    """
    if not np.isfinite(center / DELAY_STEP):  # the window must be countable in steps
        raise ConfigurationError(f"delay window center {center} s is beyond 0.1 fs steps")
    return _delay_search(jsa.grid, jsa.amplitude.tobytes(), center)


def _x_state(p_same: float, p_cross: float, kappa: complex) -> TwoQubitState:
    """X-state with populations p_same on HH and VV and p_cross on HV and VH, and
    coherence kappa between HV and VH."""
    rho = np.zeros((4, 4), dtype=np.complex128)
    rho[_HH, _HH] = rho[_VV, _VV] = p_same
    rho[_HV, _HV] = rho[_VH, _VH] = p_cross
    rho[_HV, _VH] = kappa
    rho[_VH, _HV] = np.conj(kappa)
    return TwoQubitState(rho=rho)


def post_selected_state(v_int: complex, phi_bs: float = 0.0) -> TwoQubitState:
    """X-state of the post-selected pair for a given spectral overlap, |v_int| <= 1.

    Populations 1/2 on HV and VH; coherence v_int * exp(i phi_bs) / 2
    between them. phi_bs is the fixed relative phase the splitter and path
    optics put between the two terms; 0 makes v_int = 1 the pure
    (|HV> + |VH>)/sqrt(2) pair.
    """
    if abs(v_int) > 1.0 + 1e-10:
        raise ValueError(f"|v_int| = {abs(v_int)} exceeds 1")
    return _x_state(0.0, 0.5, 0.5 * v_int * np.exp(1j * phi_bs))


def visibility_state(v_z: float, v_d: float, phi_bs: float = 0.0) -> TwoQubitState:
    """X-state with independent H/V-basis and diagonal-basis fringe visibilities.

    v_z sets the HV/VH population imbalance against HH/VV (fringe contrast
    with one analyzer at 0); v_d sets the HV-VH coherence (contrast at 45
    degrees). Positivity requires v_d <= (1 + v_z) / 2.
    """
    if not -1.0 <= v_z <= 1.0:
        raise ValueError(f"v_z must lie in [-1, 1], got {v_z}")
    if not 0.0 <= v_d <= 0.5 * (1.0 + v_z) + 1e-12:
        raise ValueError(f"v_d = {v_d} incompatible with v_z = {v_z} (needs v_d <= (1+v_z)/2)")
    return _x_state(0.25 * (1.0 - v_z), 0.25 * (1.0 + v_z), 0.5 * v_d * np.exp(1j * phi_bs))


def concurrence(state: TwoQubitState) -> float:
    """Concurrence of an X-state, Yu & Eberly's closed form (Quantum Inf. Comput. 7, 459,
    2007) 2 max(0, |rho_HV,VH| - sqrt(rho_HH rho_VV), |rho_HH,VV| - sqrt(rho_HV rho_VH)).

    In Python floats, so no LAPACK kernel, whose choice follows the CPU, touches
    the value, and exact to rounding even where |v_int| is 1e-14. ValueError for
    a state that is not an X-state; every state this package builds is one.
    """
    rho = state.rho
    x_entries = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]  # HH-VV and HV-VH
    if np.any(rho[~x_entries]):
        raise ValueError("concurrence needs an X-state: rho has other off-diagonal entries")
    p_hh, p_hv, p_vh, p_vv = np.clip(rho.diagonal().real, 0.0, None).tolist()  # each >= -1e-10
    hv_vh = abs(complex(rho[_HV, _VH])) - math.sqrt(p_hh * p_vv)
    hh_vv = abs(complex(rho[_HH, _VV])) - math.sqrt(p_hv * p_vh)
    return 2.0 * max(0.0, hv_vh, hh_vv)
