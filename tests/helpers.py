"""Shared independent oracles for the test suite."""

import mpmath
import numpy as np

from esfi.barrier import _SHORT_RANGE, MotiveModel
from esfi.rates import _ll_factors
from esfi.units import REGISTRY


def composite_barrier_strength(model: MotiveModel, panels: int = 1_000_000) -> float:
    """Brute-force composite-Simpson evaluation of the barrier strength.

    Uses the same endpoint-regularizing sine substitution as the program's
    quadrature, but on the linear coordinate and with a fixed
    million-panel composite rule, making it an independent check of the
    log-mapped Gauss-Legendre route.  Nothing comes from esfi's solver:
    the turning points are :func:`exact_turning_points` of
    :func:`exact_coefficients`, and M is evaluated from those coefficients
    rounded to floats.
    """
    with mpmath.workdps(30):
        coeffs = exact_coefficients(model.atom, model.variant.value, model.F)
        c_in, c_out = exact_turning_points(coeffs)
        mid, half = float((c_in + c_out) / 2), float((c_out - c_in) / 2)
    A0, A1, A2, A3 = (float(a) for a in coeffs)
    t = np.linspace(-0.5 * np.pi, 0.5 * np.pi, panels + 1)
    c = mid + half * np.sin(t)
    values = np.sqrt(np.clip(A0 - A1 * c - A2 / c - A3 / c**2, 0.0, None)) * np.cos(t)
    h = t[1] - t[0]
    simpson = (values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum()) * h / 3.0
    return 2.0 * REGISTRY.sigma.value * half * simpson


def naive_roots_closed_form(atom, F: float) -> tuple[float, float]:
    """Quadratic-formula roots of I - e F z - B/z = 0 (the naive barrier)."""
    e = REGISTRY.e.value
    disc = np.sqrt(atom.I**2 - 4.0 * e * F * atom.B)
    return (
        (atom.I - disc) / (2.0 * e * F),
        (atom.I + disc) / (2.0 * e * F),
    )


def naive_strength_forbes_deane(atom, F: float) -> float:
    """Naive-barrier strength from the Schottky-Nordheim barrier function
    of Forbes & Deane (Proc. R. Soc. A 463, 2907, 2007):

        G = b I^(3/2) v(f)/F,  f = 4 e B F/I^2,
        v(f) = (1 + f^(1/2))^(1/2) [E(m) - f^(1/2) K(m)],
        m = (1 - f^(1/2))/(1 + f^(1/2)),

    with complete elliptic integrals evaluated in 30-digit mpmath.
    """
    with mpmath.workdps(30):
        e = mpmath.mpf(REGISTRY.e.value)
        I, B, F = mpmath.mpf(atom.I), mpmath.mpf(atom.B), mpmath.mpf(F)
        b = 4 * mpmath.mpf(REGISTRY.sigma.value) / (3 * e)
        r = mpmath.sqrt(4 * e * B * F / I**2)
        m = (1 - r) / (1 + r)
        v = mpmath.sqrt(1 + r) * (mpmath.ellipe(m) - r * mpmath.ellipk(m))
        return float(b * I**1.5 * v / F)


def exact_coefficients(atom, method: str, F) -> tuple:
    """(A0, A1, A2, A3) of a JWKB method's barrier at the field F as mpmath
    numbers, from the program's float inputs each taken as exact: atom.I,
    atom.B, the registry's e and sigma, and the transformed barriers'
    short-range coefficient A3 = 1/(4 sigma^2) as the program rounds it."""
    I, B, eF = mpmath.mpf(atom.I), mpmath.mpf(atom.B), mpmath.mpf(REGISTRY.e.value) * F
    A3 = mpmath.mpf(_SHORT_RANGE)
    return {
        "jwkb-parabolic": (I / 4, eF / 8, B / 4, A3),
        "jwkb-cartesian": (I, eF, B / 2, A3),
        "jwkb-naive": (I, eF, B, mpmath.mpf(0)),
    }[method]


def exact_turning_points(coeffs) -> tuple:
    """c_in < c_out, the positive roots of -c^2 M for
    M(c) = A0 - A1 c - A2/c - A3/c^2 with the coefficients taken as exact,
    in the working precision of mpmath."""
    A0, A1, A2, A3 = map(mpmath.mpf, coeffs)
    roots = mpmath.polyroots([A1, -A0, A2, A3], maxsteps=200, extraprec=100)
    c_in, c_out = sorted(r.real for r in roots if r.real > 0 and abs(r.imag) < 1e-20 * r.real)
    return c_in, c_out


def exact_barrier(coeffs):
    """(c_in, G) for M(c) = A0 - A1 c - A2/c - A3/c^2 with the coefficients
    (A0, A1, A2, A3) taken as exact, in 30-digit mpmath: the turning points
    are :func:`exact_turning_points`, and
    G = 2 sigma * integral of M^(1/2) between them by tanh-sinh quadrature
    on log c."""
    with mpmath.workdps(30):
        A0, A1, A2, A3 = map(mpmath.mpf, coeffs)
        c_in, c_out = exact_turning_points(coeffs)

        def integrand(s):
            c = mpmath.exp(s)
            return c * mpmath.sqrt(max(A0 - A1 * c - A2 / c - A3 / c**2, 0))

        G = 2 * mpmath.mpf(REGISTRY.sigma.value) * mpmath.quad(
            integrand, [mpmath.log(c_in), mpmath.log(c_out)]
        )
        return c_in, G


def _sine_mapped_strength(coeffs) -> mpmath.mpf:
    """G for M(c) = A0 - A1 c - A2/c - A3/c^2 with the coefficients taken
    as exact, in the working precision of mpmath: tanh-sinh quadrature on
    t in [-pi/2, pi/2] with log c = log c_in + half (1 + sin t), which
    makes the integrand analytic at the turning points.  Those are
    :func:`exact_turning_points`, which raises mpmath's NoConvergence where
    polyroots does not settle them."""
    A0, A1, A2, A3 = coeffs
    c_in, c_out = exact_turning_points(coeffs)
    half = mpmath.log(c_out / c_in) / 2

    def integrand(t):
        c = c_in * mpmath.exp(half * (1 + mpmath.sin(t)))
        return c * mpmath.sqrt(max(A0 - A1 * c - A2 / c - A3 / c**2, 0)) * mpmath.cos(t)

    quadrature = mpmath.quad(integrand, [-mpmath.pi / 2, mpmath.pi / 2])
    return 2 * mpmath.mpf(REGISTRY.sigma.value) * half * quadrature


def exact_strength_slope(coeffs) -> mpmath.mpf:
    """-dG/d ln A1 for M(c) = A0 - A1 c - A2/c - A3/c^2 with the
    coefficients (A0, A1, A2, A3) taken as exact, in 60-digit mpmath: the
    central difference, of relative step 1e-18 in A1, of G by
    :func:`_sine_mapped_strength`.  Where polyroots does not settle the
    turning points at their own scale, G comes from the scaled barrier:
    with c = (A0/A1) y, M/A0 has the coefficients
    (1, 1, A1 A2/A0^2, A3 A1^2/A0^3), and G scales by (A0/A1) A0^(1/2).
    Steps of 1e-14 and 1e-18 agree to some 28 figures."""
    with mpmath.workdps(60):
        A0, A1, A2, A3 = map(mpmath.mpf, coeffs)

        def strength(A1):
            try:
                return _sine_mapped_strength((A0, A1, A2, A3))
            except mpmath.libmp.NoConvergence:
                scaled = (1, 1, A1 * A2 / A0**2, A3 * A1**2 / A0**3)
                return A0 / A1 * mpmath.sqrt(A0) * _sine_mapped_strength(scaled)

        h = A1 * mpmath.mpf("1e-18")
        return -A1 * (strength(A1 + h) - strength(A1 - h)) / (2 * h)


def exact_jwkb_log_rate(atom, method: str, F) -> mpmath.mpf:
    """ln K_e of a JWKB method at the field F in 30-digit mpmath, from
    :func:`exact_coefficients` and atom.nu_Z taken as exact.
    K_e = nu_Z 2 pi x e^-x e^-G, x = (2I/B) eta_in, for the transformed
    barriers (eta_in = 2 z_in on the axis), nu_Z e^-G for the naive one."""
    with mpmath.workdps(30):
        I, B = mpmath.mpf(atom.I), mpmath.mpf(atom.B)
        eta_per_c = {"jwkb-parabolic": 1, "jwkb-cartesian": 2, "jwkb-naive": 0}[method]
        c_in, G = exact_barrier(exact_coefficients(atom, method, F))
        log_K = mpmath.log(atom.nu_Z) - G
        if eta_per_c:
            x = 2 * I / B * eta_per_c * c_in
            log_K += mpmath.log(2 * mpmath.pi * x) - x
        return log_K


def exact_jwkb_root(atom, method: str, target: float, F_near: float) -> mpmath.mpf:
    """The field at which :func:`exact_jwkb_log_rate` is ln target, by the
    secant method in 30-digit mpmath from F_near."""
    with mpmath.workdps(30):
        log_t = mpmath.log(target)
        F = mpmath.mpf(F_near)
        return mpmath.findroot(
            lambda F: exact_jwkb_log_rate(atom, method, F) - log_t,
            (F, F * (1 + mpmath.mpf(1e-10))), solver="secant",
        )


def exact_ll_root(atom, target: float) -> mpmath.mpf:
    """The field below the closed form's maximum at which
    ln(C/F) - B/F = ln target, in 40-digit mpmath, with B = b I^(3/2) and
    C = C_FI I^(5/2) the program's own long-double factors
    (``rates._ll_factors(atom.I)``), each taken exactly.  With X = B/F the
    condition reads X - ln X = L, L = ln(C/B) - ln target, whose root
    X > 1 is -W_-1(-e^-L)."""
    with mpmath.workdps(40):
        B, C = (mpmath.mpf(p) / q for p, q in (f.as_integer_ratio() for f in _ll_factors(atom.I)))
        L = mpmath.log(C / B) - mpmath.log(target)
        X = -mpmath.lambertw(-mpmath.exp(-L), -1).real
        return B / X
