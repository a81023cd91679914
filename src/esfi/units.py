"""Dimensions, quantities, physical constants and unit-system conversions.

Everything in this package is stored internally in the "field emission
customary" system based on the eV, the volt, the nanometre and the second.
SI, atomic units (e = m_e = hbar = 4*pi*eps0 = 1) and the Gaussian
charge/field convention are views obtained by conversion; the atomic-unit
scale factors are derived from the same CODATA fundamentals, never typed
in separately.

This module alone knows constant formulas and unit scales.  One
derivation, :func:`_derive`, generic over the number type, gives every
derived constant of :data:`REGISTRY` (float64) and of the long-double
constants that :mod:`esfi.rates` keeps per unit system; the module itself
imports no numpy.  One conversion arithmetic rests on
:func:`_scale_factor`: :func:`to_canonical` multiplies by it and
:func:`from_canonical`, which :func:`convert` calls, divides by it.

Dimension exponents are kept as exact rationals because half-integer
powers occur (e.g. the Schroedinger-equation constant sigma carries
energy^-1/2).

Fundamental constants are the 2010 CODATA values, frozen as literals so
that the seven-significant-figure reference values reproduce bit-exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Union

from .errors import NonFiniteValue, UnsupportedGaussianDimension, _shown

# 2010 CODATA fundamentals (SI).  Kept as strings so they can be parsed
# once into float64 and once into extended precision without double
# rounding.
CODATA_2010 = {
    "e_C": "1.602176565e-19",        # elementary charge [C]
    "m_e_kg": "9.10938291e-31",      # electron mass [kg]
    "hbar_Js": "1.054571726e-34",    # reduced Planck constant [J s]
    "eps0_F_m": "8.854187817e-12",   # electric constant [F m^-1]
    "eV_J": "1.602176565e-19",       # electronvolt [J]
}


class UnitSystem(enum.Enum):
    SI = "si"
    EVNM = "evnm"
    AU = "au"
    GAUSSIAN = "gaussian"


_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Dimension:
    """Physical dimension as rational exponents over (energy, voltage,
    length, time)."""

    energy: Fraction = _ZERO
    voltage: Fraction = _ZERO
    length: Fraction = _ZERO
    time: Fraction = _ZERO

    def __mul__(self, other: "Dimension") -> "Dimension":
        return Dimension(
            self.energy + other.energy,
            self.voltage + other.voltage,
            self.length + other.length,
            self.time + other.time,
        )

    def __truediv__(self, other: "Dimension") -> "Dimension":
        return self * other**-1

    def __pow__(self, exponent: Union[int, Fraction]) -> "Dimension":
        p = Fraction(exponent)
        return Dimension(
            self.energy * p, self.voltage * p, self.length * p, self.time * p
        )

    @property
    def is_dimensionless(self) -> bool:
        return self == DIMENSIONLESS

    def exponents(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.energy, self.voltage, self.length, self.time)

    def label(self, system: UnitSystem = UnitSystem.EVNM) -> str:
        """Human-readable unit string, e.g. 'eV^-3/2 V nm^-1'."""
        if system is UnitSystem.GAUSSIAN:
            # the Gaussian counterpart's own dimension, in eV and nm
            if self not in _GAUSSIAN_DIMENSION:
                raise _unsupported_gaussian(self)
            return _GAUSSIAN_DIMENSION[self].label()
        if system is UnitSystem.AU:
            return "" if self.is_dimensionless else "a.u."
        names = {
            UnitSystem.EVNM: ("eV", "V", "nm", "s"),
            UnitSystem.SI: ("J", "V", "m", "s"),
        }[system]
        parts = []
        for name, exp in zip(names, self.exponents()):
            if exp == 0:
                continue
            if exp == 1:
                parts.append(name)
            else:
                parts.append(f"{name}^{exp}")
        return " ".join(parts)


DIMENSIONLESS = Dimension()
ENERGY = Dimension(energy=Fraction(1))
VOLTAGE = Dimension(voltage=Fraction(1))
LENGTH = Dimension(length=Fraction(1))
TIME = Dimension(time=Fraction(1))
FREQUENCY = TIME**-1
FIELD = VOLTAGE / LENGTH
CHARGE = ENERGY / VOLTAGE
MASS = ENERGY * TIME**2 / LENGTH**2
ACTION = ENERGY * TIME
PERMITTIVITY = ENERGY * VOLTAGE**-2 * LENGTH**-1

# Gaussian-system quantities supported for conversion: the elementary
# charge e_s = e/(4 pi eps0)^1/2 and the electric field
# F_s = (4 pi eps0)^1/2 F.  Their dimensions in the canonical system:
GAUSSIAN_CHARGE = (ENERGY * LENGTH) ** _HALF
GAUSSIAN_FIELD = ENERGY**_HALF * LENGTH ** Fraction(-3, 2)
_GAUSSIAN_DIMENSION = {CHARGE: GAUSSIAN_CHARGE, FIELD: GAUSSIAN_FIELD}


@dataclass(frozen=True)
class Quantity:
    """A finite numeric value with a physical dimension.

    The value is always stored in the canonical eV/V/nm/s representation.
    A value, operand or float exponent that is infinite or nan raises
    NonFiniteValue.
    """

    value: float
    dim: Dimension = DIMENSIONLESS

    def __post_init__(self):
        value = _shown(self.value)
        if not math.isfinite(value):
            raise NonFiniteValue(f"quantity value must be finite, got {value}")

    def _coerce(self, other) -> "Quantity":
        if isinstance(other, Quantity):
            return other
        return Quantity(float(_shown(other)), DIMENSIONLESS)

    def __mul__(self, other) -> "Quantity":
        o = self._coerce(other)
        return Quantity(self.value * o.value, self.dim * o.dim)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Quantity":
        o = self._coerce(other)
        return Quantity(self.value / o.value, self.dim / o.dim)

    def __rtruediv__(self, other) -> "Quantity":
        return self._coerce(other) / self

    def __add__(self, other) -> "Quantity":
        o = self._coerce(other)
        if o.dim != self.dim:
            raise ValueError(f"cannot add dimensions {self.dim} and {o.dim}")
        return Quantity(self.value + o.value, self.dim)

    def __sub__(self, other) -> "Quantity":
        o = self._coerce(other)
        if o.dim != self.dim:
            raise ValueError(f"cannot subtract dimensions {self.dim} and {o.dim}")
        return Quantity(self.value - o.value, self.dim)

    def __neg__(self) -> "Quantity":
        return Quantity(-self.value, self.dim)

    def __pow__(self, exponent: Union[int, Fraction]) -> "Quantity":
        # Fraction() would refuse a float infinity or nan with a raw error
        if isinstance(exponent, float) and not math.isfinite(exponent):
            raise NonFiniteValue(f"exponent must be finite, got {exponent}")
        p = Fraction(exponent)
        return Quantity(self.value ** float(_shown(p)), self.dim**p)


@dataclass(frozen=True)
class Converted:
    """A quantity expressed in a target unit system."""

    value: float
    units: str
    system: UnitSystem


@dataclass(frozen=True)
class ConstantsRegistry:
    """Fundamental constants plus every derived constant used by the rate
    formulas, all as canonical (eV/V/nm/s) quantities.

    Immutable after construction; derived values are computed from the
    fundamentals, and the atomic-unit scale factors below are likewise
    derived (hartree = 2 I_H, length = a_0, time = hbar / hartree,
    voltage = hartree / e).
    """

    # fundamentals
    eV: Quantity
    e: Quantity
    m_e: Quantity
    hbar: Quantity
    eps0: Quantity
    four_pi_eps0: Quantity
    # hydrogen / universal derived constants
    B_H: Quantity           # Coulomb-law constant e^2/(4 pi eps0)
    a_0: Quantity           # Bohr radius
    nu_0: Quantity          # classical orbital frequency, H ground state
    omega_0: Quantity       # 2 pi nu_0
    I_H: Quantity           # H-atom ionization energy (free-space mass)
    sigma: Quantity         # (2 m_e)^1/2 / hbar
    b: Quantity             # second Fowler-Nordheim constant (4/3) sigma / e
    C_FI: Quantity          # field ionization constant 2^(9/2) m_e^1/2 / e hbar^2
    pi_hbar_C_FI: Quantity  # attempt-frequency-form constant
    # atomic-unit scale factors (canonical value of one atomic unit)
    hartree: float          # eV
    au_length: float        # nm
    au_time: float          # s
    au_voltage: float       # V
    au_field: float         # V/nm (derived, not a tabulated value)

    # constants that are not used expressed in SI units in practice
    SI_NOT_USED = frozenset({"I_H", "sigma", "b", "C_FI", "pi_hbar_C_FI"})
    # fundamentals and closely related quantities carry 8 significant
    # figures; derived constants 7
    EIGHT_FIGURES = frozenset({"eV", "e", "m_e", "hbar", "eps0", "four_pi_eps0"})

    def constants(self) -> dict[str, Quantity]:
        """The Quantity fields, in their order of declaration."""
        return {
            f.name: value
            for f in fields(self)
            if isinstance(value := getattr(self, f.name), Quantity)
        }

    def sig_figs(self, name: str) -> int:
        return 8 if name in self.EIGHT_FIGURES else 7


# pi to 36 significant figures, parsed like the fundamentals
_PI = "3.14159265358979323846264338327950288"


def _fundamentals(num, system: UnitSystem = UnitSystem.EVNM):
    """(e, m_e, hbar, eps0) of one unit system, parsed as the number type
    ``num`` (``float`` or ``np.longdouble``)."""
    if system is UnitSystem.EVNM:
        # charge is exactly 1 eV/V by construction
        eV_J = num(CODATA_2010["eV_J"])
        return (
            num(1),
            num(CODATA_2010["m_e_kg"]) / eV_J * num("1e-18"),
            num(CODATA_2010["hbar_Js"]) / eV_J,
            num(CODATA_2010["eps0_F_m"]) / eV_J * num("1e-9"),
        )
    if system is UnitSystem.SI:
        return tuple(num(CODATA_2010[k]) for k in ("e_C", "m_e_kg", "hbar_Js", "eps0_F_m"))
    if system is UnitSystem.AU:
        return num(1), num(1), num(1), num(1) / (num(4) * num(_PI))
    raise ValueError(f"no fundamentals for system {system}")


def _derive(num, e, m_e, hbar, eps0) -> dict:
    """Every derived constant from the fundamentals, in the number type
    ``num`` that each literal is converted to (so that long doubles meet no
    float64-rounded factor); float fundamentals may be :class:`Quantity`."""
    pi = num(_PI)
    four_pi_eps0 = num(4) * pi * eps0
    I_H = e**4 * m_e / (num(32) * pi**2 * eps0 * eps0 * hbar * hbar)
    nu_0 = I_H / (pi * hbar)
    sigma = (num(2) * m_e) ** num(0.5) / hbar
    C_FI = num(2) ** num(4.5) * m_e ** num(0.5) / (e * hbar * hbar)
    return {
        "four_pi_eps0": four_pi_eps0,
        "B_H": e * e / four_pi_eps0,
        "a_0": four_pi_eps0 * hbar * hbar / (e * e * m_e),
        "nu_0": nu_0,
        "omega_0": num(2) * pi * nu_0,
        "I_H": I_H,
        "sigma": sigma,
        "b": num(4) / num(3) * sigma / e,
        "C_FI": C_FI,
        "pi_hbar_C_FI": pi * hbar * C_FI,
    }


def build_registry() -> ConstantsRegistry:
    """Derive every registry constant from the CODATA-2010 fundamentals.

    The derivation runs in float64, so each constant keeps the rounding
    of its chain of operations: up to 3 ulps from the same derivation in
    long double rounded once to float64.  C_FI is 3 ulps above it, I_H 2
    below and pi_hbar_C_FI 2 above.  The values stay as derived: the
    closed form reads the long doubles of ``rates.EXTENDED``, not these,
    and rounding them once would move the ``constants`` dump, which is
    pinned byte for byte.
    """
    e, m_e, hbar, eps0 = (
        Quantity(value, dim)
        for value, dim in zip(_fundamentals(float), (CHARGE, MASS, ACTION, PERMITTIVITY))
    )
    derived = _derive(float, e, m_e, hbar, eps0)
    hartree = 2.0 * derived["I_H"].value
    a_0 = derived["a_0"].value
    au_voltage = hartree / e.value
    return ConstantsRegistry(
        eV=Quantity(1.0, ENERGY),
        e=e,
        m_e=m_e,
        hbar=hbar,
        eps0=eps0,
        **derived,
        hartree=hartree,
        au_length=a_0,
        au_time=hbar.value / hartree,
        au_voltage=au_voltage,
        au_field=au_voltage / a_0,
    )


REGISTRY = build_registry()


def _unsupported_gaussian(dim: Dimension) -> UnsupportedGaussianDimension:
    """The error for a Gaussian-system view of any dimension other than
    charge and field, naming the dimension by its eV-V-nm-s label."""
    return UnsupportedGaussianDimension(
        "gaussian conversion is defined only for charge and field "
        f"dimensions, not {dim.label() or 'dimensionless'}"
    )


def _scale_factor(dim: Dimension, system: UnitSystem) -> float:
    """Canonical value of one target-system unit of the given dimension."""
    if system is UnitSystem.EVNM:
        return 1.0
    if system is UnitSystem.SI:
        # one joule in eV, one volt in V, one metre in nm, one second in s
        base = (1.0 / float(CODATA_2010["eV_J"]), 1.0, 1e9, 1.0)
    elif system is UnitSystem.AU:
        r = REGISTRY
        base = (r.hartree, r.au_voltage, r.au_length, r.au_time)
    else:
        root = math.sqrt(REGISTRY.four_pi_eps0.value)
        if dim == CHARGE:
            return root
        if dim == FIELD:
            return 1.0 / root
        raise _unsupported_gaussian(dim)
    factor = 1.0
    for unit, exp in zip(base, dim.exponents()):
        factor *= unit ** float(exp)
    return factor


def convert(q: Quantity, target: UnitSystem) -> Converted:
    """Express a canonical quantity in the target unit system.

    Gaussian conversion is supported only for the elementary-charge and
    electric-field dimensions, the two Gaussian-convention quantities the
    rate formulas ever meet.
    """
    return Converted(from_canonical(q.value, q.dim, target), q.dim.label(target), target)


def from_canonical(value, dim: Dimension, system: UnitSystem):
    """A canonical value (float or array) in the units of the given system;
    unlike a :class:`Quantity`, it may be infinite or nan."""
    return _shown(value) / _scale_factor(dim, system)


def to_canonical(value: float, dim: Dimension, system: UnitSystem) -> Quantity:
    """Inverse of :func:`convert`: build a canonical quantity from a value
    expressed in the given system."""
    factor = _scale_factor(dim, system)
    return Quantity(_shown(value) * factor, dim)


def gaussian_field_to_isq(field_gaussian: float) -> Quantity:
    """ISQ electric field from its Gaussian counterpart: F = F_s / (4 pi eps0)^1/2."""
    return to_canonical(field_gaussian, FIELD, UnitSystem.GAUSSIAN)


def gaussian_charge_to_isq(charge_gaussian: float) -> Quantity:
    """ISQ charge from its Gaussian counterpart: e = e_s * (4 pi eps0)^1/2."""
    return to_canonical(charge_gaussian, CHARGE, UnitSystem.GAUSSIAN)
