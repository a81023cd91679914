"""Closed-form field-ionization rate constants and their decompositions.

The central result is the low-field rate constant for the ground state of
a hydrogenic atom in a uniform electrostatic field F,

    K_e = C_FI * I^(5/2) / F * exp(-b * I^(3/2) / F),

the ISQ form of the Landau & Lifshitz hydrogen result (Quantum Mechanics,
2nd ed., 1965), with C_FI the field ionization constant and b the second
Fowler-Nordheim constant.  The module also exposes the attempt-frequency
decomposition K_e = nu_Z * D_eff = omega_Z * T.

All exponents are evaluated in extended precision: they reach ~1e4 deep
in the tunnelling regime, where a single float64 rounding of the
coefficient already shifts the rate at the 1e-12 level.  One
extended-precision kernel carries the whole closed form (exponent,
pre-exponential, K_e, D_eff, T and ln K_e); :func:`rate_ll` and
:func:`rate_z_form` feed it one field, :func:`rate_ll_array` a whole array
of fields at once, together with the mask of fields below the guard.
Field inversion evaluates ln K_e alone, with the factors of each
ionization energy computed once, dividing each float field straight into
those long-double factors.  A field sweep evaluates K_e and the
exponent alone over an array of fields, and evaluates exp only where
K_e may not round to a zero in double; :func:`_ll_column` also marks
the fields :func:`rate_ll` refuses and words the sweep's note for each,
as the error :func:`rate_ll` raises there.

Unless stated otherwise, fields are in V/nm and rates in s^-1.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    Eta0OutsideWindow,
    NonPositiveCoordinate,
    NonPositiveField,
    ShallowTunnellingRegime,
    _shown,
)
from .hydrogenic import HydrogenicAtom, make_atom
from .units import (
    EXTENDED,
    FIELD,
    FREQUENCY,
    REGISTRY,
    UnitSystem,
    _unsupported_gaussian,
    to_canonical,
)

REGIME_DEEP = "deep"
REGIME_EXTRAPOLATED = "extrapolated"


@dataclass(frozen=True)
class RateResult:
    """A rate constant together with its algebraic decomposition.

    Satisfies K_e = pre_exponential * exp(-exponent) and
    K_e = nu_Z * D_eff.  K_e may underflow to zero for extreme exponents;
    use ``log_K_e`` when working across many orders of magnitude.
    """

    K_e: float               # rate constant [1/time in `unit_system`]
    pre_exponential: float   # [1/time in `unit_system`]
    exponent: float          # b I^(3/2)/F (dimensionless)
    D_eff: float             # effective escape probability
    T: Optional[float]       # barrier term, D_eff = 2 pi T
    log_K_e: float           # ln pre_exponential - exponent, no underflow
    method: str
    unit_system: str
    regime: str

    def as_dict(self) -> dict:
        return asdict(self)


def suppression_field_naive(atom: HydrogenicAtom) -> float:
    """Field at which the naive one-dimensional barrier I - eFz - B/z
    loses its two real zeros: F_bs = I^2/(4 e B).  [V/nm]"""
    return atom.I**2 / (4.0 * REGISTRY.e.value * atom.B)


def guard_field(atom: HydrogenicAtom) -> float:
    """Deep-tunnelling guard, half the naive barrier-suppression field.

    The closed forms hold in the low-field limit; gating at half the
    suppression field is a conservative, exactly computable cutoff.
    """
    return 0.5 * suppression_field_naive(atom)


# the text of NonPositiveField, "{}" where the field goes (str.format)
_NOT_POSITIVE = "field must be positive, got {}"


def _check_positive(F: float) -> None:
    F = _shown(F)
    if not (math.isfinite(F) and F > 0):
        raise NonPositiveField(_NOT_POSITIVE.format(F))


def _shallow_reason(guard: float) -> str:
    """The text of ShallowTunnellingRegime under the guard field `guard`,
    with "{:.6g}" where the field goes (str.format)."""
    return (
        "field {:.6g} V/nm is at or above the deep-tunnelling guard "
        f"{guard:.6g} V/nm (barrier suppression at {2 * guard:.6g} V/nm)"
    )


def _check_field(atom: HydrogenicAtom, F: float, allow_shallow: bool) -> str:
    """Validate the field and classify the regime ('deep'/'extrapolated')."""
    _check_positive(F)
    guard = guard_field(atom)
    if F < guard:
        return REGIME_DEEP
    if allow_shallow:
        return REGIME_EXTRAPOLATED
    raise ShallowTunnellingRegime(_shallow_reason(guard).format(F))


class RateArrays(NamedTuple):
    """Closed-form rates of one atom over an array of fields: the arrays
    of :class:`RateResult`, each of the fields' shape, and ``deep``, true
    below the deep-tunnelling guard."""

    K_e: np.ndarray
    pre_exponential: np.ndarray
    exponent: np.ndarray
    D_eff: np.ndarray
    T: np.ndarray
    log_K_e: np.ndarray
    deep: np.ndarray


_THREE_HALVES = np.longdouble(1.5)
_FIVE_HALVES = np.longdouble(2.5)
_BLOCK = 65536  # fields per block of rate_ll_array


def _coefficients(x, I):
    """The per-atom factors of the closed form, in extended precision, with
    I in the unit system of the constants x: b I^(3/2), C_FI I^(5/2) and
    pi hbar C_FI I^(3/2).

    I may be a float: an operation between a float and a long double
    converts the float exactly, so the factors, and their quotients by a
    float field, are those of the field and I as long doubles, bit for
    bit.  That holds only where every operation a float enters has a
    long-double operand; :func:`_closed_form`'s ``2 * I / B`` has none,
    so its callers convert I, B and F first."""
    I_3_2 = I**_THREE_HALVES
    return x.b * I_3_2, x.C_FI * I**_FIVE_HALVES, x.pi_hbar_C_FI * I_3_2


def _closed_form(x, I, B, F):
    """The closed form in extended precision, with I, B and F (a long
    double or an array of them) in the unit system of the constants x:
    K_e, pre-exponential, exponent, D_eff, T and ln K_e."""
    exponent_coeff, pre_coeff, D_eff_coeff = _coefficients(x, I)
    pre, exponent = pre_coeff / F, exponent_coeff / F
    decay = np.exp(-exponent)
    K_e = pre * decay
    D_eff = D_eff_coeff / F * decay
    T = (2 * I / B) * (8 * I / (x.e * F)) * decay
    return K_e, pre, exponent, D_eff, T, np.log(pre) - exponent


@functools.lru_cache(maxsize=64)
def _ll_factors(I: float):
    """The first two :func:`_coefficients` in V/nm and eV, per ionization
    energy, kept for the atoms a calibration meets again."""
    return _coefficients(EXTENDED[UnitSystem.EVNM], I)[:2]


def _ll_log_rate(atom: HydrogenicAtom) -> Callable[[float], float]:
    """F [V/nm] -> ln K_e of the atom, bit for bit
    ``rate_ll(atom, F, allow_shallow=True).log_K_e``, with the per-atom
    factors computed once for each I: the evaluation inside an inversion.
    I and F go into the long-double arithmetic as they are, without a
    conversion of their own (see :func:`_coefficients`): building a long
    double costs about as much as the rest of an evaluation.  Its
    ``slope()`` gives d ln K_e / d ln F = b I^(3/2)/F - 1 at the field of
    the last evaluation, from the long-double exponent that evaluation
    kept: bit for bit
    ``rate_ll(atom, F, allow_shallow=True).exponent - 1.0``.  A float
    field is checked by one comparison, 0 < F < inf; any other field goes
    through :func:`_check_positive`, for the same refusal."""
    exponent_coeff, pre_coeff = _ll_factors(atom.I)
    exponent = None  # of the last evaluation, for slope()
    log, inf = np.log, math.inf

    def log_rate(F: float) -> float:
        nonlocal exponent
        if type(F) is not float or not 0.0 < F < inf:
            _check_positive(F)
        exponent = exponent_coeff / F
        return float(log(pre_coeff / F) - exponent)

    def slope() -> float:
        """d ln K_e / d ln F at the field of the last evaluation."""
        return float(exponent) - 1.0

    log_rate.slope = slope
    return log_rate


def _rate_result(values, method: str, unit_system: UnitSystem, regime: str) -> RateResult:
    K_e, pre, exponent, D_eff, T, log_K_e = (float(v) for v in values)
    return RateResult(
        K_e=K_e,
        pre_exponential=pre,
        exponent=exponent,
        D_eff=D_eff,
        T=T,
        log_K_e=log_K_e,
        method=method,
        unit_system=unit_system.value,
        regime=regime,
    )


def _float_array(F) -> np.ndarray:
    """F (a number or an array of them) as an array of floats, an int
    beyond the float range, which the conversion refuses with
    OverflowError, as the infinity of its sign."""
    try:
        return np.asarray(F, dtype=float)
    except OverflowError:
        return np.vectorize(_shown, otypes=[float])(np.asarray(F, dtype=object))


def rate_ll_array(atom: HydrogenicAtom, F) -> RateArrays:
    """:func:`rate_ll` over an array of fields [V/nm], in extended-precision
    array arithmetic, bit for bit the values :func:`rate_ll` gives field
    by field.  The fields go through the kernel 65 536 at a time, which
    bounds the memory of its long-double temporaries.

    Nothing is refused: fields at or above the guard are evaluated and
    marked by ``deep``; fields that are not positive give meaningless
    values, so the caller screens them.
    """
    ld = np.longdouble
    I, B, x = ld(atom.I), ld(atom.B), EXTENDED[UnitSystem.EVNM]
    F = _float_array(F)
    flat = F.ravel()
    out = np.empty((6, flat.size))
    # the casts to double overflow to inf, or divide by a zero field, as
    # the scalar conversions do, without a warning
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(0, flat.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            out[:, block] = _closed_form(x, I, B, flat[block].astype(ld))
    return RateArrays(*(row.reshape(F.shape) for row in out), F < guard_field(atom))


def _ll_rate_and_exponent(atom: HydrogenicAtom, F) -> tuple[np.ndarray, np.ndarray]:
    """K_e and the exponent of :func:`rate_ll_array`, bit for bit, and
    nothing else, over an array of fields [V/nm] in one pass.  exp(-X),
    with X the exponent, runs only where K_e may not round to a zero in
    double.  Where ln F + X exceeds ln(C_FI I^(5/2)) + 747, computed in
    double to some 1e-12, K_e lies below e^-747, well under half the
    least subnormal (e^-745.13): it is then the prefactor times 0, +0,
    which the cast of the full product gives too, without expl or the
    cast's slow path for a value that underflows.  The comparison is
    false for nan, zero and negative fields, which take the full
    product; at +inf it is true, and K_e is +0 both ways.  A sweep hands
    it at most one block of its rows, so its long-double temporaries
    stay as small as those of :func:`rate_ll_array`."""
    exponent_coeff, pre_coeff = _ll_factors(atom.I)
    F = np.asarray(F, dtype=float)
    Fl = F.astype(np.longdouble)
    # no warnings for overflow, a zero field or the log of a negative one
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        exponent = exponent_coeff / Fl
        X = exponent.astype(float)
        decay = np.zeros_like(exponent)
        np.exp(-exponent, out=decay, where=~(np.log(F) + X > float(np.log(pre_coeff)) + 747.0))
        return (pre_coeff / Fl * decay).astype(float), X


def _ll_column(atom: HydrogenicAtom, F: np.ndarray, allow_shallow: bool):
    """A sweep's closed-form column over a 1-D array of fields [V/nm]: K_e
    and the exponent of :func:`_ll_rate_and_exponent`, nan wherever
    :func:`rate_ll` refuses the field, and the text of each refusal, as a
    dict from the index of each field that is not positive and finite to
    its text, and the template of every other refusal, the guard's, with
    "{:.6g}" where the field goes (str.format)."""
    K_e, exponent = _ll_rate_and_exponent(atom, F)
    guard = guard_field(atom)
    # _check_field's rule: F is finite and positive, and below the guard
    # unless allow_shallow
    refused = ~((F > 0.0) & (F < (math.inf if allow_shallow else guard)))
    K_e[refused] = exponent[refused] = np.nan
    (index,) = np.nonzero(refused)
    texts = {i: _NOT_POSITIVE.format(f) for i, f in zip(index.tolist(), F[index].tolist())
             if not 0.0 < f < math.inf}
    return K_e, exponent, texts, _shallow_reason(guard)


def rate_ll(atom: HydrogenicAtom, F: float, *, allow_shallow: bool = False) -> RateResult:
    """Low-field rate constant K_e = C_FI I^(5/2)/F exp(-b I^(3/2)/F).

    Parameters
    ----------
    atom : hydrogenic atom (its ionization energy I drives the rate).
    F : field magnitude [V/nm], below the deep-tunnelling guard.
    allow_shallow : evaluate anyway above the guard; the result is
        labelled 'extrapolated'.
    """
    regime = _check_field(atom, F, allow_shallow)
    ld = np.longdouble
    values = _closed_form(EXTENDED[UnitSystem.EVNM], ld(atom.I), ld(atom.B), ld(F))
    return _rate_result(values, "ll", UnitSystem.EVNM, regime)


def rate_z_form(
    Z: float,
    F: float,
    *,
    unit_system: UnitSystem = UnitSystem.EVNM,
    allow_shallow: bool = False,
) -> RateResult:
    """Charge-number form K_e = C_FI Z^5 I_H^(5/2) F^-1 exp(-b Z^3 I_H^(3/2)/F).

    Algebraically identical to :func:`rate_ll` with I = Z^2 I_H, but
    evaluated directly from the constants of the requested unit system
    (EVNM, AU or SI), with F given and K_e returned in that system.  In
    atomic units with Z = 1 this reduces to the textbook hydrogen result
    (4/F) exp(-2/(3F)).
    """
    atom = make_atom(Z)
    # float(F) that, like math.isfinite, refuses a string
    F_canonical = to_canonical(math.ldexp(_shown(F), 0), FIELD, unit_system).value
    regime = _check_field(atom, F_canonical, allow_shallow)
    if unit_system not in EXTENDED:  # Gaussian: a rate has no Gaussian view
        raise _unsupported_gaussian(FREQUENCY)

    x = EXTENDED[unit_system]
    Zl = np.longdouble(Z)
    values = _closed_form(x, Zl**2 * x.I_H, Zl * x.B_H, np.longdouble(F))
    return _rate_result(values, "ll-z", unit_system, regime)


def rate_gaussian_check(F: float, *, allow_shallow: bool = False) -> RateResult:
    """Hydrogen (Z = 1) rate evaluated directly from the fundamentals,

        K_e = {4 m_e^3 e^9 / (4 pi eps0)^5 hbar^7 F}
              * exp[-(2/3) m_e^2 e^5 / (4 pi eps0)^3 hbar^4 F],

    the ISQ transcription of the Gaussian-system Landau & Lifshitz
    formula.  Serves as an independent consistency route: its ratio to
    :func:`rate_ll` for hydrogen is 1 up to rounding.  D_eff and T are
    those of the closed form.
    """
    atom = make_atom(1.0)
    regime = _check_field(atom, F, allow_shallow)
    x = EXTENDED[UnitSystem.EVNM]
    ld = np.longdouble
    Fl = ld(F)

    pre_coeff = 4 * x.m_e**3 * x.e**9 / (x.four_pi_eps0**5 * x.hbar**7)
    exp_coeff = (2 * x.m_e**2 * x.e**5) / (3 * x.four_pi_eps0**3 * x.hbar**4)
    exponent = exp_coeff / Fl
    pre = pre_coeff / Fl
    _, _, _, D_eff, T, _ = _closed_form(x, ld(atom.I), ld(atom.B), Fl)
    values = pre * np.exp(-exponent), pre, exponent, D_eff, T, np.log(pre) - exponent
    return _rate_result(values, "gaussian-check", UnitSystem.EVNM, regime)


def effective_escape_probability(
    atom: HydrogenicAtom, F: float, *, allow_shallow: bool = False
) -> float:
    """D_eff = pi hbar C_FI * (I^(3/2)/F) * exp(-b I^(3/2)/F).

    This is K_e expressed per orbital attempt, K_e = nu_Z * D_eff.  It
    folds in three-dimensional geometry and is not a bare one-dimensional
    tunnelling probability.
    """
    return rate_ll(atom, F, allow_shallow=allow_shallow).D_eff


def barrier_term(atom: HydrogenicAtom, F: float, *, allow_shallow: bool = False) -> float:
    """Dimensionless barrier term T = (2I/B)(8I/eF) exp(-b I^(3/2)/F),
    satisfying K_e = omega_Z * T."""
    return rate_ll(atom, F, allow_shallow=allow_shallow).T


def geometric_prefactor() -> float:
    """Geometrical factor P_g relating D_eff = P_g * T; exactly 2 pi."""
    return 2.0 * math.pi


def _check_eta0_window(atom: HydrogenicAtom, F: float, eta0: float) -> None:
    """Refuse a field or eta0 that is not positive and finite, and warn
    where eta0 lies outside the soft window; the warning names the caller
    of the entry point that calls this, so each calls it once, directly."""
    _check_positive(F)
    eta0 = _shown(eta0)
    if not 0.0 < eta0 < math.inf:
        raise NonPositiveCoordinate(
            f"matching coordinate eta0 must be positive and finite, got {eta0}"
        )
    # soft heuristic window: well clear of the orbit radius, well inside
    # the outer turning point 2I/(eF)
    outer = 2.0 * atom.I / (REGISTRY.e.value * F)
    if not (5.0 * atom.a_Z <= eta0 <= 0.2 * outer):
        warnings.warn(
            f"matching coordinate eta0={eta0:.6g} nm outside the soft window "
            f"[{5.0 * atom.a_Z:.6g}, {0.2 * outer:.6g}] nm",
            Eta0OutsideWindow,
            stacklevel=3,
        )


def barrier_integral_main_part(atom: HydrogenicAtom, F: float, eta0: float) -> float:
    """Leading (triangular-barrier) part of the analytic barrier integral
    from the matching coordinate eta0 to the outer turning point:

        b * I^(3/2)/F - sigma * I^(1/2) * eta0.
    """
    _check_eta0_window(atom, F, eta0)
    return _main_part(atom, F, eta0)


def _main_part(atom: HydrogenicAtom, F: float, eta0: float) -> float:
    r = REGISTRY
    return r.b.value * atom.I**1.5 / F - r.sigma.value * math.sqrt(atom.I) * eta0


def barrier_integral_log_part(atom: HydrogenicAtom, F: float, eta0: float) -> float:
    """Coulomb-tail (logarithmic) part of the analytic barrier integral,
    -ln{(8I/eF)/eta0}; the source of the F^-1 pre-exponential."""
    _check_eta0_window(atom, F, eta0)
    return _log_part(atom, F, eta0)


def _log_part(atom: HydrogenicAtom, F: float, eta0: float) -> float:
    return -math.log(8.0 * atom.I / (REGISTRY.e.value * F * eta0))


def barrier_term_from_parts(atom: HydrogenicAtom, F: float, eta0: float) -> float:
    """Assemble T from the split barrier integral and its matching-point
    prefactor,

        T = (2I/B) eta0 exp[-(2I/B) eta0] * exp[-(main + log)]

    every eta0 term cancels algebraically (sigma I^(1/2) = 2I/B for the
    default ionization energy), reproducing :func:`barrier_term`.
    """
    _check_eta0_window(atom, F, eta0)  # once, so the window warns once
    g = _main_part(atom, F, eta0) + _log_part(atom, F, eta0)
    two_i_over_b = 2.0 * atom.I / atom.B
    return two_i_over_b * eta0 * math.exp(-two_i_over_b * eta0) * math.exp(-g)
