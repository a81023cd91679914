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
Each root finishes with a Newton step.

The barrier-strength integrand M^(1/2) has square-root zeros at both
turning points.  The quadrature maps [c_in, c_out] to log c, which spreads
the many decades between the turning points at low field evenly, then
substitutes a sine, which makes the integrand analytic at the endpoints.
Fixed 32- and 64-node Gauss-Legendre rules give G and its error estimate.
Where they disagree (log c spanning some 45 units or more, fields below
about 1e-19 of suppression) a composite rule takes over: 64 nodes on each
of P equal panels of the sine-mapped coordinate, P growing with the
log-span, checked against 2P panels.  G is bounded by the triangular
barrier's 4 sigma A0^(3/2)/(3 A1); fields where that bound leaves the
float range raise BracketingFailure before any arithmetic overflows.

:func:`rate_jwkb` solves one field with scalar arithmetic.
:func:`rate_jwkb_array` solves one barrier shape over an array of fields,
a block of fields at a time: the same closed-form roots, a masked form of
the same Newton polish, and the same 32/64-node quadrature as one
(fields x 96 nodes) evaluation; the few fields it cannot settle (an
unconverged quadrature, the float range) go to :func:`rate_jwkb`.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
import warnings
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BarrierSuppressed,
    BracketingFailure,
    EsfiError,
    NonPositiveCoordinate,
    NonPositiveField,
    QuadratureNonConvergence,
    ShallowBarrierWarning,
)
from .hydrogenic import HydrogenicAtom
from .rates import (
    REGIME_DEEP,
    REGIME_EXTRAPOLATED,
    REGIME_SHALLOW,
    guard_field,
    suppression_field_naive,
)
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
_SUPPRESSED = 1e3 * _EPS  # peak motive, relative to I, counted as merged zeros
_STRENGTH_BOUND = 4.0 * REGISTRY.sigma.value / 3.0  # G < this * A0^(3/2)/A1
_BLOCK = 1024  # fields per block of the array solver


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
        # a numpy scalar would carry numpy's overflow warnings into the solve
        object.__setattr__(self, "F", float(self.F))
        if not math.isfinite(self.F) or self.F <= 0:
            raise NonPositiveField(f"field must be positive, got {self.F}")


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


def _slope(k, c):
    _, A1, A2, A3 = k
    ic = 1.0 / c
    return -A1 + ic * ic * (A2 + 2.0 * A3 * ic)


def _curvature(k, c):
    """M'' < 0 everywhere: M is concave with a single peak."""
    _, _, A2, A3 = k
    ic = 1.0 / c
    return -(ic**3) * (2.0 * A2 + 6.0 * A3 * ic)


def _polish(fn, c: float) -> float:
    """Newton steps on fn(c) -> (value, derivative) from a close estimate;
    a step is kept only while it shrinks |value|."""
    v, d = fn(c)
    for _ in range(_NEWTON_MAX):
        step = v / d if d else math.inf
        if abs(step) <= _EPS * c:
            return c - step
        nxt = c - step
        if not nxt > 0.0:
            break
        v_next, d_next = fn(nxt)
        if not abs(v_next) < abs(v):
            break
        c, v, d = nxt, v_next, d_next
    return c


def _polish_array(fn, c: np.ndarray) -> np.ndarray:
    """:func:`_polish` on an array of estimates, each entry stopping by
    the same rule as it would alone."""
    v, d = fn(c)
    live = np.ones(c.shape, dtype=bool)
    for _ in range(_NEWTON_MAX):
        step = v / d
        nxt = c - step
        done = live & (np.abs(step) <= _EPS * c)
        c = np.where(done, nxt, c)
        live &= ~done & (nxt > 0.0)
        if not live.any():
            break
        v_next, d_next = fn(np.where(live, nxt, c))
        live &= np.abs(v_next) < np.abs(v)
        c = np.where(live, nxt, c)
        v = np.where(live, v_next, v)
        d = np.where(live, d_next, d)
    return c


def motive(model: MotiveModel, coord):
    """Motive energy [eV] at the given coordinate [nm] (scalar or array).

    The coordinate is eta for the transformed-parabolic variant and z for
    the Cartesian ones.  Note the transformed-parabolic values carry the
    separated equation's I/4 energy scale; the barrier-strength integral
    uses them as-is.
    """
    if np.any(np.asarray(coord) <= 0):
        raise NonPositiveCoordinate(f"coordinate must be positive, got {coord}")
    return _motive(_coefficients(model.variant, model.atom, model.F), coord)


def _peak(k) -> float:
    _, A1, A2, A3 = k
    if not A1 > 0.0:
        raise BracketingFailure("field too small to resolve: e F underflows")
    s = math.sqrt(A2) / math.sqrt(A1)  # the naive barrier's peak
    if A3 == 0.0:
        return s
    # c = s x turns A1 c^3 - A2 c - 2 A3 = 0 into x^3 - x - kappa = 0,
    # whose single positive root is trigonometric (three real roots) or
    # Cardano's (one real root), written here without cancellation
    kappa = 2.0 * A3 / (A2 * s)
    d = 0.25 * kappa * kappa - 1.0 / 27.0
    if d < 0.0:
        x = 2.0 / math.sqrt(3.0) * math.cos(math.acos(1.5 * math.sqrt(3.0) * kappa) / 3.0)
    else:
        w = (0.5 * kappa + math.sqrt(d)) ** (1.0 / 3.0)
        x = w + 1.0 / (3.0 * w)
    return _polish(lambda c: (_slope(k, c), _curvature(k, c)), s * x)


def _peak_array(k) -> np.ndarray:
    """:func:`_peak` over an array of A1 > 0."""
    _, A1, A2, A3 = k
    s = np.sqrt(A2) / np.sqrt(A1)
    if A3 == 0.0:
        return s
    kappa = 2.0 * A3 / (A2 * s)
    d = 0.25 * kappa * kappa - 1.0 / 27.0
    w = (0.5 * kappa + np.sqrt(d)) ** (1.0 / 3.0)
    x = np.where(
        d < 0.0,
        2.0 / math.sqrt(3.0) * np.cos(np.arccos(1.5 * math.sqrt(3.0) * kappa) / 3.0),
        w + 1.0 / (3.0 * w),
    )
    return _polish_array(lambda c: (_slope(k, c), _curvature(k, c)), s * x)


def motive_peak(model: MotiveModel) -> tuple[float, float]:
    """Location and value of the single barrier maximum."""
    k = _coefficients(model.variant, model.atom, model.F)
    peak = _peak(k)
    return peak, _motive(k, peak)


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
    z = (atom.B + math.sqrt(atom.B**2 + 3.0 * atom.I * inv_sigma2)) / (2.0 * atom.I)
    return (atom.B / (2.0 * z * z) + 0.5 * inv_sigma2 / z**3) / REGISTRY.e.value


def _outer_root(k) -> float:
    """Largest root y of y^3 - y^2 + alpha y + beta (c = (A0/A1) y), or of
    y^2 - y + alpha for the naive barrier."""
    A0, A1, A2, A3 = k
    ratio = A1 / A0
    alpha = ratio * (A2 / A0)
    if A3 == 0.0:
        return 0.5 + math.sqrt(0.25 - alpha)
    beta = (A3 / A0) * ratio * ratio
    p = alpha - 1.0 / 3.0
    q = beta + alpha / 3.0 - 2.0 / 27.0
    r = math.sqrt(-p / 3.0)
    cos3 = min(1.0, max(-1.0, 1.5 * q / (p * r)))
    return 1.0 / 3.0 + 2.0 * r * math.cos(math.acos(cos3) / 3.0)


def _outer_root_array(k) -> np.ndarray:
    """:func:`_outer_root` over an array of A1."""
    A0, A1, A2, A3 = k
    ratio = A1 / A0
    alpha = ratio * (A2 / A0)
    if A3 == 0.0:
        return 0.5 + np.sqrt(0.25 - alpha)
    beta = (A3 / A0) * ratio * ratio
    p = alpha - 1.0 / 3.0
    q = beta + alpha / 3.0 - 2.0 / 27.0
    r = np.sqrt(-p / 3.0)
    cos3 = np.clip(1.5 * q / (p * r), -1.0, 1.0)
    return 1.0 / 3.0 + 2.0 * r * np.cos(np.arccos(cos3) / 3.0)


def _zero_estimates(k, y_out, sqrt):
    """(c_in, c_out) from the outer root y_out, unpolished."""
    A0, A1, A2, A3 = k
    c_out = y_out * (A0 / A1)
    # A1 (c - c_out)(c^2 + u c + w) = -c^2 M with w = -A3/D, u = -g,
    # D = A1 c_out; the positive root of the quadratic is the inner zero
    D = A0 * y_out
    g = (A2 + A3 / c_out) / D
    return 0.5 * (g + sqrt(g * g + 4.0 * A3 / D)), c_out


def turning_points(model: MotiveModel) -> tuple[float, float]:
    """Both zeros of the motive energy, to ~machine relative precision.

    The barrier peak (unique: M is concave) decides suppression first; a
    peak within rounding error of zero counts as merged turning points.
    With c = (A0/A1) y the zeros of c^2 M solve y^3 - y^2 + alpha y + beta
    = 0 (beta = 0 and one factor y fewer for the naive barrier).  The outer
    zero is its largest root, trigonometric for the cubic and from the
    quadratic formula otherwise.  Deflating it leaves a quadratic whose
    positive root is the inner zero, in a form free of the cancellation
    that the wide spread of the zeros at low field would cause.  A Newton
    step on M polishes each zero.
    """
    peak, peak_value = motive_peak(model)
    if peak_value <= _SUPPRESSED * model.atom.I:
        f_bs = suppression_field(model.atom, model.variant)
        raise BarrierSuppressed(
            f"barrier vanished at F={model.F:.6g} V/nm "
            f"(suppression field {f_bs:.6g} V/nm for {model.variant.value})",
            suppression_field=f_bs,
        )

    k = _coefficients(model.variant, model.atom, model.F)
    c_in, c_out = _zero_estimates(k, _outer_root(k), math.sqrt)
    if not c_out < math.inf:
        raise BracketingFailure(
            f"the outer motive zero at F={model.F:.6g} V/nm lies beyond the float range"
        )
    fn = lambda c: (_motive(k, c), _slope(k, c))  # noqa: E731
    c_in, c_out = _polish(fn, c_in), _polish(fn, c_out)
    if not 0.0 < c_in < peak < c_out < math.inf:
        raise BracketingFailure(
            f"could not resolve the motive zeros around peak {peak:.6g} nm "
            f"(got {c_in:.6g}, {c_out:.6g})"
        )
    return c_in, c_out


@functools.lru_cache(maxsize=None)
def _sine_mapped_rules(rules: tuple[tuple[int, int], ...]):
    """Composite Gauss-Legendre rules on t in [-pi/2, pi/2], each given as
    (nodes per panel, equal panels), stacked: 1 + sin t at every node, and
    one weight row per rule (w cos t, zero at the other rules' nodes)."""
    ts, ws = [], []
    for order, panels in rules:
        x, w = np.polynomial.legendre.leggauss(order)
        width = np.pi / panels
        centres = -0.5 * np.pi + width * (np.arange(panels) + 0.5)
        ts.append((centres[:, None] + 0.5 * width * x).ravel())
        ws.append(np.tile(0.5 * width * w, panels))
    t = np.concatenate(ts)
    rise = 2.0 * np.sin(0.5 * t + 0.25 * np.pi) ** 2  # 1 + sin t, exact near -pi/2
    weights = np.zeros((len(rules), t.size))
    start = 0
    for row, w in enumerate(ws):
        stop = start + w.size
        weights[row, start:stop] = w * np.cos(t[start:stop])
        start = stop
    rise.setflags(write=False)  # shared by every caller through the cache
    weights.setflags(write=False)
    return rise, weights


def _strength_fits(k):
    """Whether G, below the triangular barrier's 4 sigma A0^(3/2)/(3 A1),
    is sure to stay inside the float range (so does every term of its
    quadrature)."""
    return _STRENGTH_BOUND * k[0] ** 1.5 < sys.float_info.max * k[1]


def _strength_between(model: MotiveModel, c_in: float, c_out: float) -> float:
    k = _coefficients(model.variant, model.atom, model.F)
    if not _strength_fits(k):
        raise BracketingFailure(
            f"barrier strength at F={model.F:.6g} V/nm exceeds the float range"
        )
    # log c = log c_in + half (1 + sin t), so dc = c half cos t dt
    half = 0.5 * math.log1p((c_out - c_in) / c_in)
    scale = 2.0 * REGISTRY.sigma.value * half

    def integrate(rules):
        rise, weights = _sine_mapped_rules(rules)
        c = c_in * np.exp(half * rise)
        # rounding can push M a hair below zero right at the endpoints
        return scale * (weights @ (c * np.sqrt(np.maximum(_motive(k, c), 0.0))))

    tolerance = lambda G: max(_TOL_ABS, _TOL_REL * abs(G))  # noqa: E731
    G_coarse, G = integrate(_GAUSS_RULES)
    if not abs(G - G_coarse) <= tolerance(G):
        # the difference bounds the coarser rule's error; once log c spans
        # some 45 units (fields below about 1e-19 of suppression) 32 nodes
        # fall short, so split t into panels as the span grows, and check
        # against twice as many
        panels = math.ceil(half / _LOG_SPAN_PER_PANEL)
        G_coarse, G = integrate(((_FALLBACK_ORDER, panels), (_FALLBACK_ORDER, 2 * panels)))
    err = abs(G - G_coarse)
    if not err <= tolerance(G):
        raise QuadratureNonConvergence(
            f"barrier-strength quadrature error {err:.3e} "
            f"exceeds tolerance (G={G:.6g})"
        )
    return float(G)


def _strengths_between(k, c_in: np.ndarray, c_out: np.ndarray):
    """:func:`_strength_between`'s 32/64-node pair over arrays of turning
    points, as one (fields x 96 nodes) evaluation: G, and where the pair
    agrees."""
    half = 0.5 * np.log1p((c_out - c_in) / c_in)
    scale = 2.0 * REGISTRY.sigma.value * half
    rise, weights = _sine_mapped_rules(_GAUSS_RULES)
    c = c_in[:, None] * np.exp(half[:, None] * rise)
    k = (k[0], k[1][:, None], k[2], k[3])
    integrand = c * np.sqrt(np.maximum(_motive(k, c), 0.0))
    G_coarse, G = scale * (integrand @ weights.T).T
    return G, np.abs(G - G_coarse) <= np.maximum(_TOL_ABS, _TOL_REL * np.abs(G))


def barrier_strength(model: MotiveModel) -> float:
    """Barrier strength G = 2 sigma * integral of M^(1/2) between the
    turning points (dimensionless).  Parametrization-invariant: the eta
    and z forms agree."""
    c_in, c_out = turning_points(model)
    return _strength_between(model, c_in, c_out)


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


def _prefactor(variant: MotiveVariant, atom: HydrogenicAtom, c_in, exp):
    """P_jwkb = x e^-x with x = (2I/B) eta_in at the inner zero c_in
    (eta = 2 z on the symmetry axis); exp is math.exp or np.exp."""
    eta_in = c_in if variant is MotiveVariant.TRANSFORMED_PARABOLIC else 2.0 * c_in
    x = 2.0 * atom.I / atom.B * eta_in
    return x * exp(-x)


def _warn_shallow(D_eff: float, stacklevel: int) -> None:
    warnings.warn(
        f"escape probability {D_eff:.4g} exceeds 1; barrier too shallow "
        "for the quasi-classical treatment",
        ShallowBarrierWarning,
        stacklevel=stacklevel + 1,
    )


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
    atom = model.atom
    c_in, c_out = turning_points(model)
    G = _strength_between(model, c_in, c_out)

    if simple_prefactor or model.variant is MotiveVariant.NAIVE_1D:
        P_jwkb = 1.0
        P_eff = 1.0
    else:
        P_jwkb = _prefactor(model.variant, atom, c_in, math.exp)
        P_eff = 2.0 * math.pi * P_jwkb

    D_eff = P_eff * math.exp(-G)
    if D_eff > 1.0:
        _warn_shallow(D_eff, stacklevel=2)
        regime = REGIME_SHALLOW
    elif model.F < guard_field(atom):
        regime = REGIME_DEEP
    else:
        regime = REGIME_EXTRAPOLATED

    return BarrierSolution(
        method=model.variant.value + ("-simple" if simple_prefactor else ""),
        coord_in=c_in,
        coord_out=c_out,
        G=G,
        P_jwkb=P_jwkb,
        P_eff=P_eff,
        D_eff=D_eff,
        K_e=atom.nu_Z * D_eff,
        log_K_e=math.log(atom.nu_Z * P_eff) - G,
        regime=regime,
    )


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


def _solve_block(variant: MotiveVariant, atom: HydrogenicAtom, F: np.ndarray, out):
    """Solve a block of fields into the columns of `out` (rows in the
    order of BarrierArrays); return the indices left to rate_jwkb."""
    k = _coefficients(variant, atom, F)
    # rate_jwkb refuses the others: F not positive and finite, e F
    # underflowing, G past the float range
    resolvable = (k[1] > 0.0) & (F < math.inf) & _strength_fits(k)
    rows = np.flatnonzero(resolvable)
    scalar = [np.flatnonzero(~resolvable)]

    k = _coefficients(variant, atom, F[rows])
    peak = _peak_array(k)
    barrier = ~(_motive(k, peak) <= _SUPPRESSED * atom.I)  # nan counts as a barrier
    rows, peak = rows[barrier], peak[barrier]

    k = _coefficients(variant, atom, F[rows])
    c_in, c_out = _zero_estimates(k, _outer_root_array(k), np.sqrt)
    fn = lambda c: (_motive(k, c), _slope(k, c))  # noqa: E731
    c_in, c_out = _polish_array(fn, c_in), _polish_array(fn, c_out)
    G, converged = _strengths_between(k, c_in, c_out)
    bracketed = (0.0 < c_in) & (c_in < peak) & (peak < c_out) & (c_out < math.inf)
    solved = converged & bracketed
    scalar.append(rows[~solved])
    rows, c_in, c_out, G = rows[solved], c_in[solved], c_out[solved], G[solved]

    if variant is MotiveVariant.NAIVE_1D:
        P_jwkb = P_eff = np.ones(rows.size)
    else:
        P_jwkb = _prefactor(variant, atom, c_in, np.exp)
        P_eff = 2.0 * math.pi * P_jwkb
    D_eff = P_eff * np.exp(-G)
    log_K_e = np.log(atom.nu_Z * P_eff) - G
    out[:, rows] = (c_in, c_out, G, P_jwkb, P_eff, D_eff, atom.nu_Z * D_eff, log_K_e)
    return np.concatenate(scalar)


def rate_jwkb_array(variant: MotiveVariant, atom: HydrogenicAtom, F) -> BarrierArrays:
    """:func:`rate_jwkb` (its default pre-factor) for one barrier shape
    over an array of fields [V/nm].

    Blocks of fields are solved together: the closed-form peak and
    turning points, the Newton polish with the scalar stopping rule, and
    the 32/64-node quadrature as one (fields x 96 nodes) evaluation.  A
    field that quadrature leaves unconverged, or that the scalar path
    refuses (field not positive, e F underflowing, G past the float
    range), is handed to :func:`rate_jwkb`.  Results agree with
    :func:`rate_jwkb` to rounding; where the barrier is suppressed or
    :func:`rate_jwkb` raises they are nan, and :func:`rate_jwkb` on that
    field gives the reason.  Fields with D_eff > 1 warn as there.
    """
    F = np.asarray(F, dtype=float)
    flat = F.ravel()
    out = np.full((len(BarrierArrays._fields), flat.size), np.nan)
    scalar = []
    # masked-out lanes compute garbage; nothing of it reaches the results
    with np.errstate(all="ignore"):
        for start in range(0, flat.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            scalar.append(start + _solve_block(variant, atom, flat[block], out[:, block]))
    scalar = np.concatenate(scalar) if scalar else np.empty(0, dtype=int)
    batched = np.ones(flat.size, dtype=bool)
    batched[scalar] = False
    for i in scalar:
        try:
            sol = rate_jwkb(MotiveModel(variant, atom, float(flat[i])))
        except EsfiError:
            continue
        out[:, i] = [getattr(sol, name) for name in BarrierArrays._fields]
    result = BarrierArrays(*out)
    for D_eff in result.D_eff[batched & (result.D_eff > 1.0)]:
        _warn_shallow(float(D_eff), stacklevel=2)
    return BarrierArrays(*(row.reshape(F.shape) for row in out))


def attempt_frequency_rate(atom: HydrogenicAtom, D: float) -> float:
    """Attempt-frequency rate estimate K_e = nu_Z * D for an externally
    supplied escape probability D.

    D > 1 is formally possible near barrier suppression and only draws a
    warning.
    """
    if D > 1.0:
        warnings.warn(
            f"escape probability {D:.4g} exceeds 1",
            ShallowBarrierWarning,
            stacklevel=2,
        )
    return atom.nu_Z * D
