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
Fixed 32- and 64-node Gauss-Legendre rules give G and its error estimate;
a 128-node rule takes over from the 32-node one at extremely low fields.
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    BarrierSuppressed,
    BracketingFailure,
    NonPositiveCoordinate,
    NonPositiveField,
    QuadratureNonConvergence,
    ShallowBarrierWarning,
)
from .hydrogenic import HydrogenicAtom, cartesian_axis_to_parabolic
from .rates import (
    REGIME_DEEP,
    REGIME_EXTRAPOLATED,
    REGIME_SHALLOW,
    guard_field,
    suppression_field_naive,
)
from .units import REGISTRY

_EPS = float(np.finfo(float).eps)
_NEWTON_MAX = 8
_GAUSS_ORDERS = (32, 64)
_FALLBACK_ORDER = (128,)


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
        if not math.isfinite(self.F) or self.F <= 0:
            raise NonPositiveField(f"field must be positive, got {self.F}")


def _coefficients(model: MotiveModel) -> tuple[float, float, float, float]:
    """(A0, A1, A2, A3) of M(c) = A0 - A1 c - A2/c - A3/c^2."""
    a = model.atom
    eF = REGISTRY.e.value * model.F
    short_range = 0.25 / REGISTRY.sigma.value**2
    if model.variant is MotiveVariant.TRANSFORMED_PARABOLIC:
        return a.I / 4.0, eF / 8.0, a.B / 4.0, short_range
    if model.variant is MotiveVariant.TRANSFORMED_CARTESIAN:
        return a.I, eF, a.B / 2.0, short_range
    return a.I, eF, a.B, 0.0


def _motive(k, c):
    A0, A1, A2, A3 = k
    ic = 1.0 / c
    return A0 - A1 * c - ic * (A2 + A3 * ic)


def _slope(k, c: float) -> float:
    _, A1, A2, A3 = k
    ic = 1.0 / c
    return -A1 + ic * ic * (A2 + 2.0 * A3 * ic)


def _curvature(k, c: float) -> float:
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


def motive(model: MotiveModel, coord):
    """Motive energy [eV] at the given coordinate [nm] (scalar or array).

    The coordinate is eta for the transformed-parabolic variant and z for
    the Cartesian ones.  Note the transformed-parabolic values carry the
    separated equation's I/4 energy scale; the barrier-strength integral
    uses them as-is.
    """
    if np.any(np.asarray(coord) <= 0):
        raise NonPositiveCoordinate(f"coordinate must be positive, got {coord}")
    return _motive(_coefficients(model), coord)


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


def motive_peak(model: MotiveModel) -> tuple[float, float]:
    """Location and value of the single barrier maximum."""
    k = _coefficients(model)
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
    if peak_value <= 1e3 * _EPS * model.atom.I:
        f_bs = suppression_field(model.atom, model.variant)
        raise BarrierSuppressed(
            f"barrier vanished at F={model.F:.6g} V/nm "
            f"(suppression field {f_bs:.6g} V/nm for {model.variant.value})",
            suppression_field=f_bs,
        )

    k = A0, A1, A2, A3 = _coefficients(model)
    ratio = A1 / A0
    alpha = ratio * (A2 / A0)
    if A3 == 0.0:
        y_out = 0.5 + math.sqrt(0.25 - alpha)
    else:
        beta = (A3 / A0) * ratio * ratio
        p = alpha - 1.0 / 3.0
        q = beta + alpha / 3.0 - 2.0 / 27.0
        r = math.sqrt(-p / 3.0)
        cos3 = min(1.0, max(-1.0, 1.5 * q / (p * r)))
        y_out = 1.0 / 3.0 + 2.0 * r * math.cos(math.acos(cos3) / 3.0)
    c_out = y_out * (A0 / A1)
    # A1 (c - c_out)(c^2 + u c + w) = -c^2 M with w = -A3/D, u = -g,
    # D = A1 c_out; the positive root of the quadratic is the inner zero
    D = A0 * y_out
    g = (A2 + A3 / c_out) / D
    c_in = 0.5 * (g + math.sqrt(g * g + 4.0 * A3 / D))

    fn = lambda c: (_motive(k, c), _slope(k, c))  # noqa: E731
    c_in, c_out = _polish(fn, c_in), _polish(fn, c_out)
    if not 0.0 < c_in < peak < c_out < math.inf:
        raise BracketingFailure(
            f"could not resolve the motive zeros around peak {peak:.6g} nm "
            f"(got {c_in:.6g}, {c_out:.6g})"
        )
    return c_in, c_out


@functools.lru_cache(maxsize=None)
def _sine_mapped_rules(orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rules of the given orders on t in [-pi/2, pi/2],
    stacked: 1 + sin t at every node, and one weight row per rule (w cos t,
    zero at the other rules' nodes)."""
    rules = [np.polynomial.legendre.leggauss(n) for n in orders]
    t = 0.5 * np.pi * np.concatenate([x for x, _ in rules])
    rise = 2.0 * np.sin(0.5 * t + 0.25 * np.pi) ** 2  # 1 + sin t, exact near -pi/2
    weights = np.zeros((len(rules), t.size))
    start = 0
    for row, (x, w) in enumerate(rules):
        stop = start + x.size
        weights[row, start:stop] = 0.5 * np.pi * w * np.cos(t[start:stop])
        start = stop
    rise.setflags(write=False)  # shared by every caller through the cache
    weights.setflags(write=False)
    return rise, weights


def _strength_between(model: MotiveModel, c_in: float, c_out: float) -> float:
    # log c = log c_in + half (1 + sin t), so dc = c half cos t dt
    half = 0.5 * math.log1p((c_out - c_in) / c_in)
    k = _coefficients(model)
    scale = 2.0 * REGISTRY.sigma.value * half

    def integrate(orders):
        rise, weights = _sine_mapped_rules(orders)
        c = c_in * np.exp(half * rise)
        # rounding can push M a hair below zero right at the endpoints
        return scale * (weights @ (c * np.sqrt(np.maximum(_motive(k, c), 0.0))))

    # 1e-10 absolute, relaxed proportionally once G is so large that the
    # bound would sit below float64 roundoff
    tolerance = lambda G: max(1e-10, 1e-12 * abs(G))  # noqa: E731
    G_coarse, G = integrate(_GAUSS_ORDERS)
    if not abs(G - G_coarse) <= tolerance(G):
        # the difference bounds the coarser rule's error; once log c spans
        # some 45 units (fields below about 1e-19 of suppression) 32 nodes
        # fall short where 64 do not, so check those against 128
        G_coarse, (G,) = G, integrate(_FALLBACK_ORDER)
    err = abs(G - G_coarse)
    if not err <= tolerance(G):
        raise QuadratureNonConvergence(
            f"barrier-strength quadrature error {err:.3e} "
            f"exceeds tolerance (G={G:.6g})"
        )
    return float(G)


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
        if model.variant is MotiveVariant.TRANSFORMED_PARABOLIC:
            eta_in = c_in
        else:
            eta_in = cartesian_axis_to_parabolic(c_in)
        x = 2.0 * atom.I / atom.B * eta_in
        P_jwkb = x * math.exp(-x)
        P_eff = 2.0 * math.pi * P_jwkb

    D_eff = P_eff * math.exp(-G)
    if D_eff > 1.0:
        warnings.warn(
            f"escape probability {D_eff:.4g} exceeds 1; barrier too shallow "
            "for the quasi-classical treatment",
            ShallowBarrierWarning,
            stacklevel=2,
        )
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
