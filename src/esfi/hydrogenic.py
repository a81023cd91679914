"""Hydrogenic atom (one electron, nuclear charge Z e) in zero field.

The charge number Z need not be an integer; fractional Z is a common
device for modelling effective one-electron systems.  The reduced-mass
correction is neglected throughout (the electron carries its free-space
mass), so the derived properties follow the textbook ground-state
relations exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

from .errors import (
    NegativeCoordinate,
    NonPositiveIonizationEnergy,
    NonPositiveZ,
    ValidationError,
    _shown,
)
from .units import REGISTRY

_I_MAX = math.sqrt(sys.float_info.max)  # eV
# the registry's floats that make_atom reads, taken once
_B_H, _I_H = REGISTRY.B_H.value, REGISTRY.I_H.value
_SIGMA2, _PI_HBAR = REGISTRY.sigma.value**2, math.pi * REGISTRY.hbar.value


@dataclass(frozen=True)
class HydrogenicAtom:
    """Derived zero-field properties of the ground state.

    When the ionization energy is overridden (near-surface work shifts the
    effective ionization energy), the Coulomb constant B, and with it the
    orbit radius, stay tied to Z; only I and the orbital frequency follow
    the override.  The default-I identities I*a_Z = B/2 and I = B^2 s^2/4
    then no longer hold, by construction.
    """

    Z: float        # charge number (dimensionless)
    I: float        # ionization energy [eV]
    B: float        # Coulomb constant Z e^2/(4 pi eps0) [eV nm]
    a_Z: float      # classical orbit radius [nm]
    nu_Z: float     # classical orbital frequency I/(pi hbar) [s^-1]
    omega_Z: float  # 2 pi nu_Z [rad/s]
    default_ionization: bool = True


def make_atom(Z: float, I_override: Optional[float] = None) -> HydrogenicAtom:
    """Build a hydrogenic atom from its charge number.

    Parameters
    ----------
    Z : positive real charge number.
    I_override : optional ionization energy in eV replacing the default
        Z^2 * I_H (the Coulomb constant stays Z-based).

    The ionization energy, given or Z^2 * I_H, must come out positive
    and below 1.34e154 eV (ValidationError otherwise).  A subnormal one,
    below 2.2e-308 eV (with the default I, Z below about 1e-154), is
    accepted but keeps only a few significant bits, as do the rates
    derived from it.
    """
    try:
        valid = Z > 0 and math.isfinite(Z)
    except OverflowError:  # an int beyond the float range
        valid = False
    if not valid:
        raise NonPositiveZ(f"charge number Z must be positive, got {_shown(Z)}")
    # a numpy scalar would carry numpy scalar arithmetic into every field
    Z = float(Z)
    if I_override is not None:
        try:
            valid = math.isfinite(I_override) and I_override > 0
        except OverflowError:
            valid = False
        if not valid:
            raise NonPositiveIonizationEnergy(
                f"ionization energy must be positive, got {_shown(I_override)}"
            )
    B = Z * _B_H
    I = Z * Z * _I_H if I_override is None else float(I_override)
    # Z^2 I_H can underflow or overflow, and the suppression field
    # I^2/(4 e B) squares I
    if not 0.0 < I < _I_MAX:
        raise ValidationError(
            f"ionization energy {I:.6g} eV (Z={Z:.6g}) must be positive "
            f"and below {_I_MAX:.4g} eV, where its square is finite"
        )
    nu_Z = I / _PI_HBAR
    # Z, I, B, a_Z (equals a_0/Z), nu_Z, omega_Z, default_ionization
    return HydrogenicAtom(
        Z, I, B, 2.0 / (_SIGMA2 * B), nu_Z, 2.0 * math.pi * nu_Z, I_override is None
    )


def parabolic_to_cartesian(eta: float, xi: float, phi: float) -> tuple[float, float, float]:
    """Map parabolic coordinates to Cartesian ones.

    The convention has the electron leaving the atom in the positive z
    and positive eta directions:

        x = (eta xi)^1/2 cos(phi),  y = (eta xi)^1/2 sin(phi),
        z = (eta - xi)/2.
    """
    if eta < 0 or xi < 0:
        raise NegativeCoordinate(
            f"parabolic coordinates must be non-negative, got eta={eta}, xi={xi}"
        )
    rho = math.sqrt(eta * xi)
    return (rho * math.cos(phi), rho * math.sin(phi), 0.5 * (eta - xi))


def cartesian_axis_to_parabolic(z: float) -> float:
    """On the symmetry axis (xi = 0) the parabolic coordinate is eta = 2 z."""
    if z < 0:
        raise NegativeCoordinate(f"on-axis z must be non-negative, got {z}")
    return 2.0 * z
