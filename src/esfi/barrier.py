"""Numeric JWKB machinery: motive-energy models, turning points, barrier
strength and JWKB-form rate constants.

Three barrier shapes are supported for a hydrogenic atom in a uniform
field F (canonical units: energies eV, lengths nm, fields V/nm):

* transformed parabolic, in the parabolic coordinate eta along which the
  separated Schroedinger equation takes one-dimensional form:
      M(eta) = I/4 - e F eta/8 - B/(4 eta) - 1/(4 sigma^2 eta^2)
* the same barrier converted to the symmetry axis via eta = 2 z:
      M(z) = I - e F z - B/(2 z) - 1/(4 sigma^2 z^2)
* the naive one-dimensional energy count along the axis:
      M(z) = I - e F z - B/z

The transformed forms differ from the naive one in the halved Coulomb
term and the short-range correction; the two transformed parametrizations
give identical barrier-strength integrals.

Every shape reads M(c) = A0 - A1 c - A2/c - A3/c^2 (A3 = 0 for the naive
barrier), so the solver is closed form throughout.  M is concave with a
single peak, the positive root of the cubic A1 c^3 - A2 c - 2 A3 = 0.  The
turning points are the two positive roots of -c^2 M, a cubic (for the
naive barrier c M, a quadratic).  The transformed barriers vanish where
M = M' = 0 share a root, which gives their suppression field directly.
Newton steps on M polish the two zeros; the peak, which only decides
suppression and must lie between the zeros, is the closed form alone.
Its relative error grows as 1.85e-17 ln kappa (see :func:`_peak`), some
56 ulps at kappa near 1e150, which moves neither G, which the zeros
give, nor the suppression verdict: M is flat at its peak.

The barrier-strength integrand M^(1/2) has square-root zeros at both
turning points.  The quadrature maps [c_in, c_out] to log c, which spreads
the many decades between the turning points at low field evenly, then
substitutes a sine, which makes the integrand analytic at the endpoints.
Fixed 32- and 64-node Gauss-Legendre rules, each node and weight within
half an ulp of exact, give G and its error estimate.
Where they disagree (log c spanning some 45 units or more, fields below
about 1e-19 of suppression) a composite rule takes over: 64 nodes on each
of P equal panels of the sine-mapped coordinate, P growing with the
log-span, checked against 2P panels.  Where that disagrees too (just
below suppression, for I far below Z^2 I_H, M's terms cancel near the
close turning points), the 32/64-node pair integrates M's factored form,
its zeros, instead.  G is bounded by the triangular barrier's
4 sigma A0^(3/2)/(3 A1); fields where that bound leaves the float range
raise BracketingFailure before any arithmetic overflows.

One solver core serves one field and an array of fields: each step is
written once, and its caller hands it the arithmetic, :mod:`math` for a
float and numpy for an array, each entry of which stops as it would
alone; :func:`_assemble` turns the turning points and G into the rate.
:func:`rate_jwkb` runs it on one field, names the reason for any failure
and alone has the composite rule, with :func:`_jwkb_log_rate`, which
skips the model objects, keeps only ln K_e and gives its slope on ln F,
for the inverse solver, from the fall of G that the strength step hands
back with G, computed only when asked;
:func:`rate_jwkb_array` runs it on blocks of fields and hands the few it
cannot settle to :func:`rate_jwkb`.  For a sweep, :func:`_rate_jwkb_arrays`
also words each refused field's note as the error :func:`rate_jwkb`
raises there: the text of that error where the field went to
:func:`rate_jwkb`, else the shape's template of BarrierSuppressed.
Each caller of the quadrature fetches the 32/64-node pair's tables, built
on first use, once: per call, per block of fields or per evaluator.  The
evaluator also fetches once its coefficients at F = 1 (A1 times F is A1 at
F), the fixed ones also as 0-d arrays, which numpy takes quicker than
floats, and 2I/B.  One field sums its nodes as a 1-D product, bit for bit
the row of that field in an array; the fall of G sums them in numpy's
pairwise order, not by a BLAS dot, whose order OpenBLAS picks by CPU, so
a JWKB answer is the same on every CPU.
A block holds one barrier shape, whose coefficients are the numbers of
:func:`_coefficients` with A1 a column of fields.  The Cartesian barrier
is not solved over arrays: it is the parabolic one at z = eta/2, every
scale between the two a power of two, so its rows are the parabolic rows
with both coordinates halved, bit for bit.  The scalar path keeps the
Cartesian coefficients, the reference for that identity.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
import warnings
from dataclasses import asdict, dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import (
    BarrierSuppressed,
    BracketingFailure,
    EsfiError,
    NonPositiveCoordinate,
    QuadratureNonConvergence,
    ShallowBarrierWarning,
    ValidationError,
    _shown,
)
from .hydrogenic import HydrogenicAtom
from .rates import _check_field, _check_positive, _float_array, suppression_field_naive
from .units import REGISTRY

_EPS = float(np.finfo(float).eps)
_CHARGE = REGISTRY.e.value
_SHORT_RANGE = 0.25 / REGISTRY.sigma.value**2  # A3 of the transformed barriers
_NEWTON_MAX = 8
_GAUSS_RULES = ((32, 1), (64, 1))  # (nodes per panel, panels)
_FALLBACK_ORDER = 64
_LOG_SPAN_PER_PANEL = 20.0  # units of half the log-span of c per fallback panel
# quadrature tolerance: 1e-10 absolute, relaxed proportionally once G is
# so large that the bound would sit below float64 roundoff
_TOL_ABS, _TOL_REL = 1e-10, 1e-12
# peak motive, relative to the shape's energy scale A0, counted as merged
# zeros; the parabolic motive (A0 = I/4) is the Cartesian one at z = eta/2
# over 4, so both shapes call the same fields suppressed
_SUPPRESSED = 1e3 * _EPS
_SIGMA = REGISTRY.sigma.value
_TWO_SIGMA = 2.0 * _SIGMA  # G = 2 sigma * integral of M^(1/2)
_STRENGTH_BOUND = 4.0 * _SIGMA / 3.0  # G < this * A0^(3/2)/A1
_FLOAT_MAX = sys.float_info.max
_ZERO = np.array(0.0)  # an array operand: numpy converts a float one on every call
_BLOCK = 1024  # fields per block of the array solver
# within this relative margin past the suppression field, rounding can turn
# the array solver's verdict of suppression; rate_jwkb settles those fields
_SUPPRESSION_MARGIN = 1e-6
_ROOT3_3_2, _ROOT3_2_3 = 1.5 * math.sqrt(3.0), 2.0 / math.sqrt(3.0)  # 3^(3/2)/2, 2/3^(1/2)

# The arithmetic of one field and of an array of fields.  The scalar
# where evaluates both of its branches, so what feeds it is clamped to
# the arguments math accepts; unlike numpy's, a float division raises on
# a zero divisor and math.log on zero.
_SCALAR = SimpleNamespace(
    sqrt=math.sqrt, hypot=math.hypot, cos=math.cos, acos=math.acos, exp=math.exp,
    log=lambda x: math.log(x) if x else -math.inf, log1p=math.log1p, any=bool,
    clip=lambda x, lo, hi: (x if x < hi else hi) if x > lo else lo,  # min(hi, max(lo, x))
    where=lambda cond, a, b: a if cond else b,
    divide=lambda v, d: v / d if d else math.inf,
)
_ARRAY = SimpleNamespace(
    sqrt=np.sqrt, hypot=np.hypot, cos=np.cos, acos=np.arccos, exp=np.exp, log=np.log,
    log1p=np.log1p, any=np.count_nonzero,  # the quickest any for a few hundred entries
    clip=lambda x, lo, hi: np.minimum(np.maximum(x, lo), hi),
    where=np.where, divide=np.divide,
)


class MotiveVariant(enum.Enum):
    TRANSFORMED_PARABOLIC = "jwkb-parabolic"
    TRANSFORMED_CARTESIAN = "jwkb-cartesian"
    NAIVE_1D = "jwkb-naive"


@dataclass(frozen=True)
class MotiveModel:
    """A barrier shape for one atom at one field value."""

    variant: MotiveVariant
    atom: HydrogenicAtom
    F: float  # V/nm

    def __post_init__(self):
        # checked before the cast, which an int beyond the float range
        # overflows; a numpy scalar would carry numpy's overflow warnings
        # into the solve
        _check_positive(self.F)
        object.__setattr__(self, "F", float(self.F))
        # not a field: built once for every step of a solve
        object.__setattr__(self, "_coeffs", _coefficients(self.variant, self.atom, self.F))


def _coefficients(variant: MotiveVariant, atom: HydrogenicAtom, F):
    """(A0, A1, A2, A3) of M(c) = A0 - A1 c - A2/c - A3/c^2; A1 has the
    shape of F (a field or an array of them), the others are numbers."""
    eF = _CHARGE * F
    if variant is MotiveVariant.TRANSFORMED_PARABOLIC:
        return atom.I / 4.0, eF / 8.0, atom.B / 4.0, _SHORT_RANGE
    if variant is MotiveVariant.TRANSFORMED_CARTESIAN:
        return atom.I, eF, atom.B / 2.0, _SHORT_RANGE
    return atom.I, eF, atom.B, 0.0


def _motive(k, c):
    A0, A1, A2, A3 = k
    ic = 1.0 / c
    return A0 - A1 * c - ic * (A2 + A3 * ic)


def _motive_and_slope(k, c):
    """(M, M') at c."""
    A0, A1, A2, A3 = k
    ic = 1.0 / c
    return A0 - A1 * c - ic * (A2 + A3 * ic), -A1 + ic * ic * (A2 + 2.0 * A3 * ic)


def _polish(k, c, ns):
    """Newton steps on M from close estimates c of its zeros, in the
    arithmetic ns of c; a step is kept only while it shrinks |M|, and each
    entry of an array stops as it would alone."""
    v, d = _motive_and_slope(k, c)
    live = True
    for _ in range(_NEWTON_MAX):
        step = ns.divide(v, d)
        size = abs(step)
        tol = _EPS * c
        nxt = c - step
        # a step within rounding of c is the last, taken unchecked
        last = live & (size <= tol)
        live = live & (size > tol) & (nxt > 0.0)  # a nan step stops too
        if not ns.any(live):
            return ns.where(last, nxt, c)
        # a stopped entry never moves again, so its v and d no longer matter
        v_next, d = _motive_and_slope(k, nxt)
        live = live & (abs(v_next) < abs(v))
        c = ns.where(last | live, nxt, c)
        v = v_next
    return c


def motive(model: MotiveModel, coord):
    """Motive energy [eV] at the given coordinate [nm] (scalar or array).

    The coordinate is eta for the transformed-parabolic variant and z for
    the Cartesian ones.  Note the transformed-parabolic values carry the
    separated equation's I/4 energy scale; the barrier-strength integral
    uses them as-is.  A coordinate that is not positive and finite, or is
    complex, raises NonPositiveCoordinate.
    """
    coord = _shown(coord)
    c = np.asarray(coord)
    if c.dtype == object:  # a list may hold ints beyond the float range
        c = np.vectorize(_shown, otypes=[object])(c)
    # numpy orders complex numbers, so a complex coordinate is refused by its type
    if c.dtype.kind != "c" and np.all((c > 0.0) & (c < math.inf)):
        # a list or tuple goes in as its array; a number stays a number
        return _motive(model._coeffs, c if c.ndim else coord)
    raise NonPositiveCoordinate(f"coordinate must be positive and finite, got {coord}")


def _peak(k, ns):
    """Location of the single maximum of M, for A1 > 0, in the arithmetic
    ns of A1: the closed form, without Newton steps.  Cardano's branch
    raises to the rounded exponent 1/3, which costs a relative error of
    about 1.85e-17 ln kappa: a few ulps of the cubic's root up to kappa
    near 1e26, and up to 56 ulps measured at kappa near 1e135-1e151.
    That moves neither G, which the zeros give, nor the suppression
    verdict: M' vanishes at the peak, so M there moves by the square of
    the error times terms that a standing barrier keeps below A0, some
    1e-27 A0, far below the verdict's threshold of 1e3 eps A0."""
    _, A1, A2, A3 = k
    s = ns.sqrt(A2) / ns.sqrt(A1)  # the naive barrier's peak
    if A3 == 0.0:
        return s
    # c = s x turns A1 c^3 - A2 c - 2 A3 = 0 into x^3 - x - kappa = 0,
    # whose single positive root is trigonometric (three real roots) or
    # Cardano's (one real root), written here without cancellation
    kappa = ns.divide(2.0 * A3, A2 * s)
    d = 0.25 * kappa * kappa - 1.0 / 27.0
    cos3 = ns.clip(_ROOT3_3_2 * kappa, -1.0, 1.0)
    w = (0.5 * kappa + ns.sqrt(abs(d))) ** (1.0 / 3.0)  # d < 0 takes cos3
    x = ns.where(d < 0.0, _ROOT3_2_3 * ns.cos(ns.acos(cos3) / 3.0), w + 1.0 / (3.0 * w))
    c = s * x
    if ns.any(d == math.inf):
        # kappa^2 leaves the float range (A2 s underflowing, say): x^3 = kappa
        # to rounding, so A1 c^3 = 2 A3. The powers' rounded exponent 1/3
        # costs some 1e-14 of c at c ~ 1e68, which one Newton step mends;
        # 2 A3/A1 itself can overflow where A1 is subnormal
        r = (2.0 * A3) ** (1.0 / 3.0) / A1 ** (1.0 / 3.0)
        c = ns.where(d < math.inf, c, r + (2.0 * A3 / (A1 * r * r) - r) / 3.0)
    return c


def _motive_peak(k, variant: MotiveVariant, atom: HydrogenicAtom, F: float):
    """:func:`motive_peak` of the barrier with coefficients k, the shape
    `variant` of `atom` at the field F."""
    if not k[1] > 0.0:
        raise BracketingFailure("field too small to resolve: e F underflows")
    try:
        peak = _peak(k, _SCALAR)
        return peak, _motive(k, peak)
    except (ArithmeticError, ValueError) as exc:
        raise _no_barrier(variant, atom, F, exc) from exc


def motive_peak(model: MotiveModel) -> tuple[float, float]:
    """Location and value of the single barrier maximum; the location is
    the cubic's closed-form root, to a relative error of about
    1.85e-17 ln kappa, which M, flat at its peak, does not feel (see
    :func:`_peak`)."""
    return _motive_peak(model._coeffs, model.variant, model.atom, model.F)


def _no_barrier(
    variant: MotiveVariant, atom: HydrogenicAtom, F: float, exc: Exception | None = None
) -> EsfiError:
    """BarrierSuppressed; or, for float arithmetic that left the float range
    (exc: Python raises where numpy gives inf or nan) below the suppression
    field, BracketingFailure."""
    f_bs = suppression_field(atom, variant)
    if exc is not None and F < f_bs:
        return BracketingFailure(f"the barrier at F={F:.6g} V/nm leaves the float range ({exc})")
    return BarrierSuppressed(_suppressed_reason(variant, f_bs).format(F), suppression_field=f_bs)


def _suppressed_reason(variant: MotiveVariant, f_bs: float) -> str:
    """The text of BarrierSuppressed for the shape whose suppression field
    is f_bs, with "{:.6g}" where the field goes (str.format)."""
    return (
        "barrier vanished at F={:.6g} V/nm "
        f"(suppression field {f_bs:.6g} V/nm for {variant.value})"
    )


def suppression_field(atom: HydrogenicAtom, variant: MotiveVariant) -> float:
    """Field at which the barrier of the given shape vanishes [V/nm].

    Closed form I^2/(4 e B) for the naive barrier.  The transformed shapes
    survive to somewhat higher fields: on the axis, M = M' = 0 share the
    root z* = (B + (B^2 + 3 I/sigma^2)^(1/2))/(2 I), where
    e F = B/(2 z*^2) + 1/(2 sigma^2 z*^3) (eta* = 2 z* for the parabolic
    form, at the same field).
    """
    if variant is MotiveVariant.NAIVE_1D:
        return suppression_field_naive(atom)
    inv_sigma2 = 1.0 / REGISTRY.sigma.value**2
    try:
        z = (atom.B + math.sqrt(atom.B**2 + 3.0 * atom.I * inv_sigma2)) / (2.0 * atom.I)
        return (atom.B / (2.0 * z * z) + 0.5 * inv_sigma2 / z**3) / REGISTRY.e.value
    except OverflowError:
        # B^2 or z^3 past the float range; in w = 1/z < I/B nothing overflows
        w = 2.0 * atom.I / (atom.B + math.hypot(atom.B, math.sqrt(3.0 * atom.I * inv_sigma2)))
        return w * w * (0.5 * atom.B + 0.5 * inv_sigma2 * w) / REGISTRY.e.value


def _zero_estimates(k, ns):
    """(c_in, c_out) in closed form, in the arithmetic ns of A1, for Newton
    steps on M to polish (c_out is nan where its closed form is infinite).
    With c = (A0/A1) y the zeros of c^2 M solve
    y^3 - y^2 + alpha y + beta = 0 (beta = 0 and one factor y fewer for the
    naive barrier).  The outer zero is its largest root,
    trigonometric for the cubic and from the quadratic formula otherwise;
    deflating it leaves a quadratic whose positive root is the inner zero,
    in a form free of the cancellation that the wide spread of the zeros
    at low field would cause."""
    A0, A1, A2, A3 = k
    ratio = A1 / A0
    alpha = ratio * (A2 / A0)
    if A3 == 0.0:
        y_out = 0.5 + ns.sqrt(0.25 - alpha)
    else:
        beta = (A3 / A0) * ratio * ratio
        p = alpha - 1.0 / 3.0
        q = beta + alpha / 3.0 - 2.0 / 27.0
        r = ns.sqrt(-p / 3.0)
        cos3 = ns.clip(1.5 * q / (p * r), -1.0, 1.0)
        y_out = 1.0 / 3.0 + 2.0 * r * ns.cos(ns.acos(cos3) / 3.0)
    c_out = y_out * (A0 / A1)
    # A1 (c - c_out)(c^2 + u c + w) = -c^2 M with w = -A3/D, u = -g,
    # D = A1 c_out; the positive root of the quadratic is the inner zero
    D = A0 * y_out
    g = (A2 + A3 / c_out) / D
    if A3 == 0.0:
        return g, c_out
    # hypot where g^2 leaves the float range (an inner zero past some 1e154)
    disc = g * g + 4.0 * A3 / D
    root = ns.where(disc < math.inf, ns.sqrt(disc), ns.hypot(g, 2.0 * ns.sqrt(A3 / D)))
    return 0.5 * (g + root), c_out


def _turning_points(k, variant: MotiveVariant, atom: HydrogenicAtom, F: float):
    """:func:`turning_points` of the barrier with coefficients k, the
    shape `variant` of `atom` at the field F."""
    peak, peak_value = _motive_peak(k, variant, atom, F)
    if peak_value <= _SUPPRESSED * k[0]:
        raise _no_barrier(variant, atom, F)
    try:
        c_in, c_out = _zero_estimates(k, _SCALAR)
        c_in, c_out = _polish(k, c_in, _SCALAR), _polish(k, c_out, _SCALAR)
    except (ArithmeticError, ValueError) as exc:
        raise _no_barrier(variant, atom, F, exc) from exc
    if not c_out < math.inf:
        raise BracketingFailure(
            f"the outer motive zero at F={F:.6g} V/nm lies beyond the float range"
        )
    if not 0.0 < c_in < peak < c_out:
        raise BracketingFailure(
            f"could not resolve the motive zeros around peak {peak:.6g} nm "
            f"(got {c_in:.6g}, {c_out:.6g})"
        )
    return c_in, c_out


def turning_points(model: MotiveModel) -> tuple[float, float]:
    """Both zeros of the motive energy, to ~machine relative precision.

    The barrier peak (unique: M is concave) decides suppression first; a
    peak within rounding error of zero counts as merged turning points.
    Each zero is closed form (:func:`_zero_estimates`), polished by Newton
    steps on M.
    """
    return _turning_points(model._coeffs, model.variant, model.atom, model.F)


def _legendre(n: int, x):
    """P_n(x) and its derivative, by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, n * (x * p - p_prev) / (x * x - 1)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """The n-node Gauss-Legendre rule on [-1, 1], nodes ascending, each
    node and weight within half an ulp of exact: Tricomi's estimate of
    each node, three Newton steps on the recurrence in long double (each
    doubles the correct digits, from about 5), and w = 2/((1 - x^2) P_n'^2)
    rounded once to float64."""
    i = np.arange(n, 0, -1)
    x = (1.0 - (n - 1.0) / (8.0 * n**3)) * np.cos(np.pi * (i - 0.25) / (n + 0.5))
    x = x.astype(np.longdouble)
    for _ in range(3):
        p, dp = _legendre(n, x)
        x = x - p / dp
    _, dp = _legendre(n, x)
    return x.astype(float), (2.0 / ((1.0 - x * x) * dp * dp)).astype(float)


@functools.lru_cache(maxsize=None)
def _sine_mapped_rules(rules: tuple[tuple[int, int], ...]):
    """Composite Gauss-Legendre rules on t in [-pi/2, pi/2], each given as
    (nodes per panel, equal panels), stacked: 1 + sin t at every node, the
    weights with one column per rule (w cos t, zero at the other rules'
    nodes), and the last rule's column alone."""
    ts, ws = [], []
    for order, panels in rules:
        x, w = _gauss_legendre(order)
        width = np.pi / panels
        centres = -0.5 * np.pi + width * (np.arange(panels) + 0.5)
        ts.append((centres[:, None] + 0.5 * width * x).ravel())
        ws.append(np.tile(0.5 * width * w, panels))
    t = np.concatenate(ts)
    rise = 2.0 * np.sin(0.5 * t + 0.25 * np.pi) ** 2  # 1 + sin t, exact near -pi/2
    weights = np.zeros((len(rules), t.size))
    rule = np.repeat(np.arange(len(rules)), [w.size for w in ws])
    weights[rule, np.arange(t.size)] = np.concatenate(ws) * np.cos(t)
    rise.setflags(write=False)  # shared by every caller through the cache
    weights.setflags(write=False)
    return rise, weights.T, weights[-1]


def _strength_fits(k):
    """Whether G, below the triangular barrier's 4 sigma A0^(3/2)/(3 A1),
    is sure to stay inside the float range (so does every term of its
    quadrature)."""
    return _STRENGTH_BOUND * k[0] ** 1.5 < _FLOAT_MAX * k[1]


def _strength_pair(k, c_in, c_out, tables, ns, factored=False):
    """G between the turning points by the coarser and the finer of two
    sine-mapped rules with the `tables` of :func:`_sine_mapped_rules`, in
    the arithmetic ns of c_in: for one field a pair of floats and the fall
    of G on ln A1 (see :func:`_fall`) as a callable of no arguments, for an
    array of fields the two stacked along the first axis.  Over an array of
    fields, A1, c_in and c_out are columns: a row of nodes per field.
    `factored` takes c M^(1/2) from the zeros of
    c^2 M = A1 (c_out - c)(c - c_in)(c - r3), with r3 = -A3/(A1 c_in c_out),
    instead of from M's terms."""
    # log c = log c_in + half (1 + sin t), so dc = c half cos t dt
    half = 0.5 * ns.log1p((c_out - c_in) / c_in)
    rise, weights_T, fine = tables
    c = np.exp(half * rise)
    c *= c_in
    # rounding can push M a hair below zero at the ends
    if factored:
        A1 = k[1]
        r3 = -k[3] / (A1 * c_in * c_out)
        integrand = np.sqrt(np.maximum(A1 * (c_out - c) * (c - c_in) * (c - r3), _ZERO))
    else:  # in place
        M = _motive(k, c)
        integrand = np.multiply(np.sqrt(np.maximum(M, _ZERO, out=M), out=M), c, out=M)
    if integrand.ndim == 1:
        # one field: the 1-D product, a gemv, bit for bit the row below,
        # scaled as floats
        scale = _TWO_SIGMA * half
        G_coarse, G = (integrand @ weights_T).tolist()
        fall = functools.partial(_fall, k[1], half, c, integrand, fine)
        return (scale * G_coarse, scale * G), fall
    # an array: each field's row summed on its own, a (1, n) @ (n, 2)
    # product, so that a row is the field solved alone; BLAS sums a
    # block's rows in another order, which would tie a field's G to the
    # fields solved beside it
    return (_TWO_SIGMA * half * (integrand[..., None, :] @ weights_T)[..., 0, :]).T


def _fall(A1, half, c, integrand, fine):
    """-dG/d ln A1 = sigma A1 * integral of c/M^(1/2) dc (the ends, where
    M = 0, add nothing) from one field's nodes: half the log-span of c, c
    and the integrand c M^(1/2) at every node, and the finer rule's weights.
    1/M^(1/2) = c/(c M^(1/2)) is taken as 0 where M rounds to zero (at
    nodes within rounding of a turning point; the nodes of a rule that
    converged are finite and not negative, so without a zero a plain
    division serves, quicker than a masked one); times the weights (zero
    at the coarser rule's nodes) before c, as they vanish at the ends,
    where 1/M^(1/2) grows.  Summed in numpy's pairwise order: a 1-D BLAS
    dot picks its order by CPU."""
    inv_root = (c / integrand if np.count_nonzero(integrand) == integrand.size
                else np.divide(c, integrand, out=np.zeros(c.shape), where=integrand > 0.0))
    return _SIGMA * half * float(np.add.reduce((A1 * c) * (c * (inv_root * fine))))


def _converged(G_coarse, G):
    """Whether the finer rule confirms the coarser: their difference bounds
    the coarser rule's error."""
    err = abs(G - G_coarse)
    return (err <= _TOL_ABS) | (err <= _TOL_REL * abs(G))


def _strength_between(k, F: float, c_in: float, c_out: float, k_nodes, pair):
    """G of the barrier with coefficients k at the field F, by the 32/64-
    node pair, whose tables are `pair`, or, where they disagree, the
    composite rule; and the fall of G on ln A1 from the nodes of the rule
    that settled it, a callable of no arguments (see :func:`_fall`).
    `k_nodes` is k for the arithmetic on the nodes, its fixed coefficients
    as floats or as 0-d arrays: numpy converts a float operand on every
    call, which takes longer than the operation on the nodes of one
    field."""
    # G, or the quadrature's nodes c and 1/c, past the float range
    if not (_strength_fits(k) and c_out / c_in < math.inf and 1.0 / c_in < math.inf):
        raise BracketingFailure(
            f"barrier strength at F={F:.6g} V/nm exceeds the float range"
        )
    (G_coarse, G), fall = _strength_pair(k_nodes, c_in, c_out, pair, _SCALAR)
    if not _converged(G_coarse, G):
        # once log c spans some 45 units (fields below about 1e-19 of
        # suppression) 32 nodes fall short, so split t into panels as the
        # span grows, and check against twice as many
        panels = math.ceil(0.5 * math.log1p((c_out - c_in) / c_in) / _LOG_SPAN_PER_PANEL)
        tables = _sine_mapped_rules(((_FALLBACK_ORDER, panels), (_FALLBACK_ORDER, 2 * panels)))
        (G_coarse, G), fall = _strength_pair(k_nodes, c_in, c_out, tables, _SCALAR)
    if not _converged(G_coarse, G):
        # just below suppression, where I is far below Z^2 I_H, M's terms
        # cancel to a few digits near the close turning points, which its
        # factored form does not; its product can overflow, leaving inf or
        # nan, without a warning, to the check below
        with np.errstate(over="ignore", invalid="ignore"):
            G_factored, fall = _strength_pair(k_nodes, c_in, c_out, pair, _SCALAR, factored=True)
        if _converged(*G_factored):
            return G_factored[1], fall
        raise QuadratureNonConvergence(
            f"barrier-strength quadrature error {abs(G - G_coarse):.3e} "
            f"exceeds tolerance (G={G:.6g})"
        )
    return G, fall


def barrier_strength(model: MotiveModel) -> float:
    """Barrier strength G = 2 sigma * integral of M^(1/2) between the
    turning points (dimensionless).  Parametrization-invariant: the eta
    and z forms agree."""
    c_in, c_out = turning_points(model)
    k = model._coeffs
    return _strength_between(k, model.F, c_in, c_out, k, _sine_mapped_rules(_GAUSS_RULES))[0]


@dataclass(frozen=True)
class BarrierSolution:
    """Turning points, barrier strength and the assembled JWKB rate."""

    method: str
    coord_in: float   # nm, inner motive zero (eta or z per variant)
    coord_out: float  # nm, outer motive zero
    G: float          # barrier strength
    P_jwkb: float     # JWKB-form pre-factor (1 in simple mode / naive)
    P_eff: float      # effective tunnelling pre-factor 2 pi P_jwkb
    D_eff: float      # escape probability P_eff exp(-G); may underflow
    K_e: float        # nu_Z * D_eff [s^-1]; may underflow
    log_K_e: float    # ln(nu_Z P_eff) - G, immune to underflow
    regime: str

    def as_dict(self) -> dict:
        return asdict(self)


class BarrierArrays(NamedTuple):
    """The numeric fields of :class:`BarrierSolution` over an array of
    fields, each of the fields' shape; nan where no barrier solution
    exists."""

    coord_in: np.ndarray
    coord_out: np.ndarray
    G: np.ndarray
    P_jwkb: np.ndarray
    P_eff: np.ndarray
    D_eff: np.ndarray
    K_e: np.ndarray
    log_K_e: np.ndarray


# eta_in / c_in at the inner zero (eta = 2 z on the symmetry axis); 0 marks
# the unit pre-factor of the naive barrier
_ETA_SCALE = {
    MotiveVariant.TRANSFORMED_PARABOLIC: 1.0,
    MotiveVariant.TRANSFORMED_CARTESIAN: 2.0,
    MotiveVariant.NAIVE_1D: 0.0,
}


def _prefactor(atom: HydrogenicAtom, c_in, eta_scale, ns):
    """P_jwkb, P_eff and ln(nu_Z P_eff), in the arithmetic ns of c_in:
    P_jwkb = x e^-x with x = (2I/B) eta_in, eta_in = eta_scale c_in at the
    inner zero c_in, or 1 where eta_scale is 0."""
    P_jwkb = P_eff = 1.0
    if eta_scale:
        x = 2.0 * atom.I / atom.B * (eta_scale * c_in)
        P_jwkb = x * ns.exp(-x)
        P_eff = 2.0 * math.pi * P_jwkb
    log_P = ns.log(atom.nu_Z * P_eff)
    if ns.any(P_eff == 0.0):  # ln(nu_Z P_eff) from x where x e^-x underflows (x past ~745)
        log_P = ns.where(P_eff > 0.0, log_P, math.log(2.0 * math.pi * atom.nu_Z) + ns.log(x) - x)
    return P_jwkb, P_eff, log_P


def _assemble(atom: HydrogenicAtom, c_in, c_out, G, eta_scale, ns):
    """The numeric fields of :class:`BarrierSolution`, in their order, with
    the pre-factor of :func:`_prefactor`, in the arithmetic ns of c_in."""
    P_jwkb, P_eff, log_P = _prefactor(atom, c_in, eta_scale, ns)
    D_eff = P_eff * ns.exp(-G)
    return c_in, c_out, G, P_jwkb, P_eff, D_eff, atom.nu_Z * D_eff, log_P - G


def rate_jwkb(model: MotiveModel, *, simple_prefactor: bool = False) -> BarrierSolution:
    """JWKB-form rate constant for the given barrier model.

    For the transformed shapes the matching coordinate is taken at the
    inner motive zero, giving the pre-factor

        P_jwkb = (2I/B) eta_in exp[-(2I/B) eta_in],  P_eff = 2 pi P_jwkb,

    (eta_in = 2 z_in for the Cartesian parametrization) and

        K_e = nu_Z * P_eff * exp(-G).

    With ``simple_prefactor=True``, or for the naive barrier (a
    comparison baseline only), the plain attempt-frequency estimate
    K_e = nu_Z * exp(-G) is used instead (tunnelling pre-factor 1).
    """
    c_in, c_out = turning_points(model)
    k = model._coeffs
    G, _ = _strength_between(k, model.F, c_in, c_out, k, _sine_mapped_rules(_GAUSS_RULES))
    eta_scale = 0.0 if simple_prefactor else _ETA_SCALE[model.variant]
    values = _assemble(model.atom, c_in, c_out, G, eta_scale, _SCALAR)
    regime = _check_field(model.atom, model.F, allow_shallow=True)
    method = model.variant.value + ("-simple" if simple_prefactor else "")
    return BarrierSolution(method, *values, regime=regime)


def _jwkb_log_rate(atom: HydrogenicAtom, variant: MotiveVariant):
    """F [V/nm] -> ln K_e of the atom's barrier of the given shape, bit for
    bit ``rate_jwkb(MotiveModel(variant, atom, F)).log_K_e`` (and the same
    refusals), by the same steps and :func:`_prefactor` but without the
    MotiveModel and BarrierSolution, and without the fields of the
    solution that ln K_e does not need: the evaluation inside an inversion.
    Its ``slope()`` gives d ln K_e / d ln F at the field of the last
    evaluation:

        -dG/d ln A1  +  (1 - x) A1/M'(c_in),

    the first the fall of G (dA1/d ln F = A1) that the strength step hands
    back with G (:func:`_strength_between`), the second the change of
    ln(x e^-x) (dc_in/dA1 = c_in/M'(c_in)).  A float field is checked by
    one comparison, 0 < F < inf; any other field goes through
    :func:`_check_positive`, for the same refusal.
    """
    eta_scale = _ETA_SCALE[variant]
    # fixed per evaluator: the coefficients at F = 1, where A1 is its scale
    # (e is 1 in canonical units, so A1 is that power of two times F, bit
    # for bit), the pre-factor's 2I/B and the 32/64-node pair's tables
    A0, per_F, A2, A3 = _coefficients(variant, atom, 1.0)
    two_I_per_B = 2.0 * atom.I / atom.B
    pair = _sine_mapped_rules(_GAUSS_RULES)
    # the fixed coefficients as 0-d arrays, for the quadrature's node
    # arithmetic (see _strength_between)
    A0_nodes, A2_nodes, A3_nodes = np.array(A0), np.array(A2), np.array(A3)
    inf = math.inf
    last = None  # what slope() needs of the last evaluation

    def log_rate(F) -> float:
        nonlocal last
        last = None  # a refused field leaves no slope behind
        if type(F) is not float or not 0.0 < F < inf:
            _check_positive(F)  # before the cast, as MotiveModel has it
            F = float(F)
        k = A0, per_F * F, A2, A3
        c_in, c_out = _turning_points(k, variant, atom, F)
        G, fall = _strength_between(k, F, c_in, c_out, (A0_nodes, k[1], A2_nodes, A3_nodes), pair)
        last = k, c_in, fall
        return _prefactor(atom, c_in, eta_scale, _SCALAR)[2] - G

    def slope() -> float:
        """d ln K_e / d ln F at the field of the last evaluation."""
        k, c_in, fall = last
        if not eta_scale:
            return fall()
        x = two_I_per_B * (eta_scale * c_in)  # as _prefactor has it
        return fall() + (1.0 - x) * k[1] / _motive_and_slope(k, c_in)[1]

    log_rate.slope = slope
    return log_rate


def _solve_block(variant: MotiveVariant, atom: HydrogenicAtom, F: np.ndarray):
    """Solve a block of fields for the barrier of the shape `variant`: the
    rows of BarrierArrays (nan where unsolved), the fields left to
    rate_jwkb and the fields whose barrier was found suppressed."""
    k = A0, A1, A2, A3 = _coefficients(variant, atom, F)
    # rate_jwkb settles the others: F not finite, G past the float range and
    # A1 below the normal floats, where e F/8 has lost bits that the
    # Cartesian barrier's e F keeps
    resolvable = _strength_fits(k) & (A1 >= sys.float_info.min) & (F < math.inf)
    peak = _peak(k, _ARRAY)
    barrier = ~(_motive(k, peak) <= _SUPPRESSED * A0)  # nan counts as a barrier
    (index,) = (resolvable & barrier).nonzero()
    A1, peak = A1[index], peak[index]
    k = A0, A1, A2, A3

    c_in, c_out = _zero_estimates(k, _ARRAY)
    # both zeros of every field in one pass, each polished as it would be alone
    zeros = _polish((A0, np.concatenate((A1, A1)), A2, A3), np.concatenate((c_in, c_out)), _ARRAY)
    c_in, c_out = zeros[: index.size], zeros[index.size :]
    k_rows = A0, A1[:, None], A2, A3  # a row of nodes per field
    pair = _sine_mapped_rules(_GAUSS_RULES)
    G_coarse, G = _strength_pair(k_rows, c_in[:, None], c_out[:, None], pair, _ARRAY)
    bracketed = (0.0 < c_in) & (c_in < peak) & (peak < c_out) & (c_out < math.inf)
    solved = _converged(G_coarse, G) & bracketed

    values = np.full((len(BarrierArrays._fields), F.size), np.nan)
    done = index[solved]
    solution = _assemble(atom, c_in[solved], c_out[solved], G[solved], _ETA_SCALE[variant],
                         _ARRAY)
    for row, value in zip(values, solution):
        row[done] = value
    left = ~resolvable
    left[index[~solved]] = True
    return values, left, resolvable & ~barrier


def _rate_jwkb_arrays(variants, atom: HydrogenicAtom, F):
    """:func:`rate_jwkb_array` for every shape of `variants`, each distinct
    barrier solved once per block of fields (the Cartesian one as the
    parabolic, its coordinates halved): per shape, its BarrierArrays, a
    dict from the flat index of each field that :func:`rate_jwkb` refused
    to the text of its error, and the template of the error of every
    other nan field, which lies past the shape's suppression field by
    more than the margin: the text of BarrierSuppressed, with "{:.6g}"
    where the field goes (str.format)."""
    F = _float_array(F)
    flat = F.ravel()
    solve = [MotiveVariant.TRANSFORMED_PARABOLIC if v is MotiveVariant.TRANSFORMED_CARTESIAN
             else v for v in variants]
    out = np.empty((len(BarrierArrays._fields), len(variants), flat.size))
    left = np.empty((len(variants), flat.size), dtype=bool)
    # each distinct barrier, the columns it fills, and its suppression field
    shapes = {shape: [j for j, s in enumerate(solve) if s is shape] for shape in solve}
    f_bs = {shape: suppression_field(atom, shape) for shape in shapes}
    # masked-out fields compute garbage; nothing of it reaches the results
    with np.errstate(all="ignore"):
        for start in range(0, flat.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            for shape, columns in shapes.items():
                values, scalar, gone = _solve_block(shape, atom, flat[block])
                out[:, columns, block] = values[:, None]
                near = flat[block] < f_bs[shape] * (1.0 + _SUPPRESSION_MARGIN)
                left[columns, block] = scalar | (gone & near)
    refusals = []
    for j, variant in enumerate(variants):
        if variant is MotiveVariant.TRANSFORMED_CARTESIAN:
            out[:2, j] *= 0.5  # z = eta/2 at both zeros
        refused = {}
        for i in left[j].nonzero()[0].tolist():
            try:
                sol = rate_jwkb(MotiveModel(variant, atom, float(flat[i])))
            except EsfiError as exc:
                refused[i] = str(exc)
                continue
            out[:, j, i] = [getattr(sol, name) for name in BarrierArrays._fields]
        refusals.append(refused)
    out = out.reshape(out.shape[:2] + F.shape)
    return [(BarrierArrays(*out[:, j]), refusals[j], _suppressed_reason(v, f_bs[solve[j]]))
            for j, v in enumerate(variants)]


def rate_jwkb_array(variant: MotiveVariant, atom: HydrogenicAtom, F) -> BarrierArrays:
    """:func:`rate_jwkb` (its default pre-factor) for one barrier shape
    over an array of fields [V/nm], solved a block of fields at a time;
    the Cartesian shape takes the parabolic solve, its coordinates halved.

    A field that the 32/64-node pair leaves unconverged, that the scalar
    path refuses (field not positive, e F underflowing, G past the float
    range), whose A1 (e F/8, e F) is not a normal float, or whose barrier
    the block finds suppressed within 1e-6 past the suppression field, is
    handed to :func:`rate_jwkb`.  Results agree with :func:`rate_jwkb` to
    rounding and are nan exactly where it raises; :func:`rate_jwkb` on that
    field gives the reason.  Rounding is relative to the barrier's height:
    G agrees within 1e-13 of itself or eps A0/(4 M_peak) of itself, whichever
    is larger (A0 the motive's constant term, M_peak its maximum), which
    just below the suppression field, where M_peak is small, is the larger.
    """
    return _rate_jwkb_arrays((variant,), atom, F)[0][0]


def attempt_frequency_rate(atom: HydrogenicAtom, D: float) -> float:
    """Attempt-frequency rate estimate K_e = nu_Z * D for an externally
    supplied escape probability D.

    D > 1 is formally possible near barrier suppression and only draws a
    warning; D negative, infinite or nan is refused (ValidationError).
    """
    D = _shown(D)
    if not 0.0 <= D < math.inf:
        raise ValidationError(f"escape probability must be finite and non-negative, got {D}")
    if D > 1.0:
        warnings.warn(
            f"escape probability {D:.4g} exceeds 1",
            ShallowBarrierWarning,
            stacklevel=2,
        )
    return atom.nu_Z * D
