"""Physical constants and boundary unit conversions.

The physics modules work in SI throughout (meters, seconds, rad/s, watts).
Interfaces accept the units experimentalists quote: nm, fs, ns, mW,
ps/(nm km) for the dispersion parameter, and degrees for analyzer angles.
Conversions happen once, at the boundary: here, in the SI factors of
the scenario schema (spdcpol.config.SCHEMA), and for angles through
math.radians and math.degrees.
"""

import math

C_LIGHT = 299_792_458.0  # vacuum speed of light, m/s
HBAR = 1.054_571_817e-34  # reduced Planck constant, J s
TWO_PI = 2.0 * math.pi


def fs(value: float) -> float:
    """Femtoseconds to seconds."""
    return value * 1e-15


def to_fs(seconds: float) -> float:
    """Seconds to femtoseconds."""
    return seconds * 1e15


def omega_from_lambda(lambda_m: float) -> float:
    """Vacuum wavelength (m) to angular frequency (rad/s)."""
    return TWO_PI * C_LIGHT / lambda_m
