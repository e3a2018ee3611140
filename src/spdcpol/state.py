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
import os
from dataclasses import dataclass

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

TRACE_ATOL = 1e-12
PSD_EIG_FLOOR = -1e-10

DELAY_HALF_WIDTH = 200e-15  # s, optimal_delay search window about delta*L/2
DELAY_STEP = 0.1e-15  # s, optimal_delay scan lattice


@dataclass(frozen=True)
class TwoQubitState:
    """X-state of the pair in the ordered basis (HH, HV, VH, VV), first slot arm 1.

    Populations p_same on HH and VV and p_cross on HV and VH, and the
    coherence kappa between HV and VH. Its eigenvalues are p_same (twice)
    and p_cross +- |kappa|, so it is checked in closed form on construction:
    eigenvalues >= -1e-10 and unit trace to 1e-12, each check failing on NaN.
    """

    p_same: float
    p_cross: float
    kappa: complex

    def __post_init__(self) -> None:
        if not (self.p_same >= PSD_EIG_FLOOR and self.p_cross - abs(self.kappa) >= PSD_EIG_FLOOR):
            raise ValueError(
                f"state is not positive semidefinite: p_same = {self.p_same}, "
                f"p_cross - |kappa| = {self.p_cross - abs(self.kappa)}"
            )
        trace = 2.0 * self.p_same + 2.0 * self.p_cross
        if not abs(trace - 1.0) <= TRACE_ATOL:
            raise ValueError(f"trace = {trace} is not 1 within 1e-12")

    @functools.cached_property
    def rho(self) -> NDArray[np.complex128]:
        """The 4x4 density matrix, read-only."""
        rho = np.zeros((4, 4), dtype=np.complex128)
        rho[_HH, _HH] = rho[_VV, _VV] = self.p_same
        rho[_HV, _HV] = rho[_VH, _VH] = self.p_cross
        rho[_HV, _VH] = self.kappa
        rho[_VH, _HV] = np.conj(self.kappa)
        rho.flags.writeable = False
        return rho


# From this many bytes up, numpy evaluates an operator expression on a
# temporary array in the temporary's buffer (temporary elision), `x * tmp`
# as `tmp * x`. Before it does, it checks its caller with glibc's
# backtrace(), whose first call in a process pages in about 0.5-0.7 MB of
# unwind tables, so the grid-sized arithmetic here and in spectral is written
# as explicit ufunc calls, which never reach that check. A complex times a
# complex is not bitwise commutative on every build (numpy 2.4 on AVX-512 is
# not), and the outputs were fixed by the operator expressions, so
# _times_temporary keeps the operand order they had for overlap_scan's two.
_NUMPY_ELIDE_BYTES = 256 * 1024


def _times_temporary(
    x: NDArray[np.complex128], tmp: NDArray[np.complex128], out: NDArray[np.complex128]
) -> NDArray[np.complex128]:
    """x * tmp into out, in the operand order numpy uses when tmp is a temporary."""
    if tmp.nbytes >= _NUMPY_ELIDE_BYTES:
        return np.multiply(tmp, x, out=out)
    return np.multiply(x, tmp, out=out)


# glibc's dynamic malloc rule (trim at twice the mmap threshold), started at 4 MiB, not at the
# first large free: a scan's two transform buffers (to 2**17 points) and pocketfft's
# per-transform scratch (to 2**18 points) reuse resident pages.
@functools.cache
def _keep_freed_heap() -> None:
    """Apply that rule once per process through mallopt; a no-op off glibc or without mallopt."""
    try:
        if "glibc" not in os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.pythonapi.mallopt  # the process's own symbols, libc's among them
    except (AttributeError, OSError, TypeError, ValueError):
        return
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD; each returns 0 if refused, which changes no value
    mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


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

    A scan of more than one delay works in two 2^k-point complex buffers,
    each transformed in place: x holds the weighted, phase-shifted and
    pre-chirped samples and y the chirp, each followed by its zero padding.
    The post-chirp, and for odd n the pre-chirp, are read off the chirp
    before y is transformed, and every N-point intermediate is released
    before the first transform, so the buffers and the pre-chirp bound the
    working set and the returned array is the only one that outlives the call.
    """
    f = jsa.amplitude
    m = f.size
    w = np.ones(m)
    w[[0, -1]] = 0.5  # trapezoid weights; the grid step cancels in the ratio
    f2 = np.abs(f)
    norm = np.sum(np.multiply(w, np.square(f2, out=f2), out=f2))
    del f2
    if norm <= 0.0:
        raise DegenerateDataError("joint spectral amplitude has zero norm")
    h, c = (m - 1) // 2, 0.5 * (n - 1)
    if n > 1:
        _keep_freed_heap()
    size = 1 << (m + n - 2).bit_length()  # >= N + n - 1: no wrap onto the outputs
    x = np.empty(size if n > 1 else m, dtype=complex)  # the samples a, then zero padding
    x[m:] = 0.0
    a = x[:m]
    # a = w * f * conj(F(-Omega)) * exp(2i * Omega * (tau0 + c * step)), one step at a time
    np.multiply(w, f, out=a)
    del w
    delay = np.conjugate(jsa.reflected())  # conj(F(-Omega)), then the delay phase
    np.multiply(a, delay, out=a)
    # Omega_k = (k - h) * dOmega, as SpectralGrid.omegas computes it, for k >= h; the
    # delay phase is odd in Omega, so k < h takes the conjugate of its mirror image
    om = np.multiply(np.arange(h + 1, dtype=float), jsa.grid.step)
    phase = np.multiply(np.multiply(2j, om, out=delay[h:]), tau0 + c * step, out=delay[h:])
    del om
    np.conjugate(np.exp(phase, out=phase)[:0:-1], out=delay[:h])
    np.multiply(a, delay, out=a)
    del phase, delay
    if n == 1:  # the chirp-z transform at a single point is the plain sum
        return a.sum(keepdims=True) / norm
    theta = 2.0 * jsa.grid.step * step
    fft = np.fft  # loaded on first use; import numpy does not load it
    # p, q and d = q - p are multiples of 1/2 far below 2**53: as floats they and
    # their squares are exact, as in the integer arithmetic of np.arange they stand for.
    # The chirp at d, which runs over k - h - c for k = 0 .. N + n - 2, is even in d and
    # its d run from -(h + c) to h + c: exponentiated for d >= 0, from k = mid on, and
    # mirrored onto k < mid.
    mid = h + n // 2
    d2 = np.add(np.arange(m + n - 1 - mid, dtype=float), c % 1.0)
    np.square(d2, out=d2)
    y = np.empty(size, dtype=complex)  # the chirp, then zero padding
    y[m + n - 1 :] = 0.0
    chirp = y[: m + n - 1]
    np.exp(np.multiply(-0.5j * theta, d2, out=chirp[mid:]), out=chirp[mid:])
    del d2
    chirp[:mid] = chirp[::-1][:mid]
    # Conjugating exp(ix) gives exp(-ix) bit for bit but for the sign of a zero
    # imaginary part, where x is 0: at p = 0 and q = 0, and everywhere when theta is 0.
    # The pre- and post-chirp take exp's own value there.
    at_zero = np.exp(np.multiply(0.5j * theta, 0.0))
    pre = np.empty(m, dtype=complex)
    if n % 2 == 0:  # p is an integer but d is not: p >= 0 exponentiated, mirrored
        p2 = np.square(np.arange(h + 1, dtype=float))
        np.exp(np.multiply(0.5j * theta, p2, out=pre[h:]), out=pre[h:])
        del p2
        pre[:h] = pre[::-1][:h]
    else:  # the chirp at d = p, conjugated
        np.conjugate(chirp[n // 2 : n // 2 + m], out=pre)
        pre[h] = at_zero
        if theta == 0.0:
            pre.fill(at_zero)
    _times_temporary(a, pre, out=a)
    del pre
    post = np.conjugate(chirp[h : h + n])  # the chirp at d = q, conjugated
    if n % 2:
        post[n // 2] = at_zero
    if theta == 0.0:
        post.fill(at_zero)
    fft.fft(x, out=x)
    fft.fft(y, out=y)
    conv = fft.ifft(_times_temporary(x, y, out=x), out=x)[m - 1 : m - 1 + n]
    return np.divide(np.multiply(post, conv, out=post), norm, out=post)


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
    i = int(np.argmax(mags))  # the first NaN if any, else an inf if any: |V| is never -inf
    if not np.isfinite(mags[i]):
        raise DegenerateDataError("|V_int| is not finite on the delay search window")
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


def post_selected_state(v_int: complex, phi_bs: float = 0.0) -> TwoQubitState:
    """X-state of the post-selected pair for a given spectral overlap, |v_int| <= 1.

    Populations 1/2 on HV and VH; coherence v_int * exp(i phi_bs) / 2
    between them. phi_bs is the fixed relative phase the splitter and path
    optics put between the two terms; 0 makes v_int = 1 the pure
    (|HV> + |VH>)/sqrt(2) pair.
    """
    if abs(v_int) > 1.0 + 1e-10:
        raise ValueError(f"|v_int| = {abs(v_int)} exceeds 1")
    return TwoQubitState(0.0, 0.5, 0.5 * v_int * np.exp(1j * phi_bs))


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
    return TwoQubitState(0.25 * (1.0 - v_z), 0.25 * (1.0 + v_z), 0.5 * v_d * np.exp(1j * phi_bs))


def concurrence(state: TwoQubitState) -> float:
    """Concurrence 2 max(0, |kappa| - max(p_same, 0)), Yu & Eberly's X-state closed form
    (Quantum Inf. Comput. 7, 459, 2007) for equal HH and VV populations and no HH-VV
    coherence.

    In Python floats, so no LAPACK kernel, whose choice follows the CPU, touches
    the value, and exact to rounding even where |v_int| is 1e-14.
    """
    return 2.0 * max(0.0, abs(complex(state.kappa)) - max(state.p_same, 0.0))
