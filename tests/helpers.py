"""Shared independent oracles for the test suite."""

import mpmath
import numpy as np

from esfi.barrier import MotiveModel, motive, turning_points
from esfi.units import REGISTRY


def composite_barrier_strength(model: MotiveModel, panels: int = 1_000_000) -> float:
    """Brute-force composite-Simpson evaluation of the barrier strength.

    Uses the same endpoint-regularizing sine substitution as the program's
    quadrature, but on the linear coordinate and with a fixed
    million-panel composite rule, making it an independent check of the
    log-mapped Gauss-Legendre route.
    """
    c_in, c_out = turning_points(model)
    mid = 0.5 * (c_in + c_out)
    half = 0.5 * (c_out - c_in)
    t = np.linspace(-0.5 * np.pi, 0.5 * np.pi, panels + 1)
    values = np.sqrt(np.clip(motive(model, mid + half * np.sin(t)), 0.0, None)) * np.cos(t)
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
